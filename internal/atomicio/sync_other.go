//go:build !linux

package atomicio

import (
	"errors"
	"io/fs"
	"os"
)

// fdatasync flushes f to stable storage: fsync where fdatasync is missing.
func fdatasync(f *os.File) error { return f.Sync() }

// unlinked reports whether the path f was opened by names no file any more.
func unlinked(f *os.File) (bool, error) {
	_, err := os.Stat(f.Name())
	if errors.Is(err, fs.ErrNotExist) {
		return true, nil
	}
	return false, err
}
