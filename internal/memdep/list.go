package memdep

// noSlot ends a list of slots.
const noSlot int32 = -1

// link threads one slot into a doubly linked list of slots.
type link struct{ prev, next int32 }

// list is a doubly linked list of slots, first to last, whose links live in
// a slice its owner passes in.  The MDST and the DDC keep LRU order in
// lists: least recently used first.
type list struct{ head, tail int32 }

// emptyList holds no slot.
var emptyList = list{noSlot, noSlot}

// pushBack appends slot i.
func (l *list) pushBack(links []link, i int32) {
	links[i] = link{prev: l.tail, next: noSlot}
	if l.tail != noSlot {
		links[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// remove unlinks slot i.
func (l *list) remove(links []link, i int32) {
	k := links[i]
	if k.prev != noSlot {
		links[k.prev].next = k.next
	} else {
		l.head = k.next
	}
	if k.next != noSlot {
		links[k.next].prev = k.prev
	} else {
		l.tail = k.prev
	}
}

// moveToBack makes slot i the last.
func (l *list) moveToBack(links []link, i int32) {
	if l.tail != i {
		l.remove(links, i)
		l.pushBack(links, i)
	}
}
