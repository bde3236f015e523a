package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the format version of every persisted object: the envelope
// and the payload inside it.  No codec versions its payload on its own, so
// this is the one number to move.  Bumping it invalidates every object
// written by earlier builds: readers treat the mismatch as a cache miss and
// rewrite the entry, so a format change never needs a migration.  Bump it
// whenever a codec's payload changes shape: TestResultEncodingPinned,
// TestWindowResultEncodingPinned and TestWorkItemEncodingPinned fail when
// the encoding of a persisted kind changes.
const Version = 5

// magic brands every object file so that a foreign file dropped into the
// store tree is recognized as garbage rather than misdecoded.
var magic = [4]byte{'M', 'D', 'S', 'O'}

// envelope layout, all integers little-endian:
//
//	offset  size  field
//	     0     4  magic "MDSO"
//	     4     4  schema version (uint32)
//	     8    32  key digest: SHA-256 of the engine key "kind\x00cachekey"
//	    40    32  payload checksum: SHA-256 of the payload bytes
//	    72     8  payload length (uint64)
//	    80     -  payload
//
// The header is fully determined by (key digest, payload), so an envelope
// that decodes successfully re-encodes byte-identically -- the property
// FuzzStoreDecode pins.
const headerLen = 4 + 4 + 32 + 32 + 8

// errWrongVersion marks an intact envelope written under another schema
// version.  Load counts it as a miss (an expected invalidation), not as
// corruption.
var errWrongVersion = errors.New("store: envelope schema version mismatch")

// header returns the envelope header of payload; the object is the header
// followed by the payload.
func header(keyDigest [sha256.Size]byte, payload []byte) [headerLen]byte {
	var h [headerLen]byte
	copy(h[0:4], magic[:])
	binary.LittleEndian.PutUint32(h[4:8], Version)
	copy(h[8:40], keyDigest[:])
	sum := sha256.Sum256(payload)
	copy(h[40:72], sum[:])
	binary.LittleEndian.PutUint64(h[72:80], uint64(len(payload)))
	return h
}

// decodeEnvelope validates an envelope against the expected key digest and
// returns its payload.  Every failure -- truncation, foreign magic, a length
// that disagrees with the file size, a checksum or key mismatch -- is an
// error, never a panic; callers treat all of them as cache misses.  The check
// is strict (no trailing bytes tolerated), which is what makes a successful
// decode re-encode byte-identically.
func decodeEnvelope(data []byte, keyDigest [sha256.Size]byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("store: envelope truncated: %d bytes, header is %d", len(data), headerLen)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("store: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w: object version %d, running version %d", errWrongVersion, v, Version)
	}
	if [sha256.Size]byte(data[8:40]) != keyDigest {
		return nil, fmt.Errorf("store: key digest mismatch (object stored under the wrong name)")
	}
	payloadLen := binary.LittleEndian.Uint64(data[72:80])
	if payloadLen != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("store: payload length %d disagrees with the %d payload bytes present",
			payloadLen, len(data)-headerLen)
	}
	payload := data[headerLen:]
	if sha256.Sum256(payload) != [sha256.Size]byte(data[40:72]) {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return payload, nil
}
