//go:build aix || dragonfly || linux || openbsd || solaris

package store

import (
	"syscall"
	"time"
)

// modTime returns the modification time fstat reported.
func modTime(st *syscall.Stat_t) time.Time {
	return time.Unix(int64(st.Mtim.Sec), int64(st.Mtim.Nsec))
}
