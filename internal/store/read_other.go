//go:build !unix

package store

import (
	"io"
	"os"
	"time"
)

// readObject reads a whole object file and its modification time.
func readObject(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data, err := io.ReadAll(f)
	return data, fi.ModTime(), err
}
