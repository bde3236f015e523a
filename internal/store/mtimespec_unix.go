//go:build darwin || freebsd || netbsd

package store

import (
	"syscall"
	"time"
)

// modTime returns the modification time fstat reported.
func modTime(st *syscall.Stat_t) time.Time {
	return time.Unix(int64(st.Mtimespec.Sec), int64(st.Mtimespec.Nsec))
}
