//go:build unix

package store

import (
	"syscall"
	"time"
)

// readObject reads a whole object file and its modification time in four
// system calls: open, fstat, one read of the size fstat reported, and
// close.  os.ReadFile reads a second time to see end of file, and os.Open
// tries to register the descriptor with the runtime poller, which a regular
// file never needs.  A file that yields fewer bytes than fstat reported
// comes back short, and the envelope check rejects it like any truncated
// object.
func readObject(path string) ([]byte, time.Time, error) {
	var fd int
	err := retryEINTR(func() (err error) {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return nil, time.Time{}, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := retryEINTR(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, st.Size)
	for n := 0; n < len(data); {
		var m int
		if err := retryEINTR(func() (err error) {
			m, err = syscall.Read(fd, data[n:])
			return err
		}); err != nil {
			return nil, time.Time{}, err
		}
		if m == 0 {
			data = data[:n]
			break
		}
		n += m
	}
	return data, modTime(&st), nil
}

// retryEINTR calls f until it returns anything but EINTR, the error of a
// system call that a signal interrupted before it did any work.
func retryEINTR(f func() error) error {
	for {
		if err := f(); err != syscall.EINTR {
			return err
		}
	}
}
