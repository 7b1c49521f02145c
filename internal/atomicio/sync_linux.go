package atomicio

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data, and the metadata needed to read it back, to
// stable storage.
func fdatasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

// unlinked reports whether f's file has no name left: its directory, or the
// file itself, was removed while it was open.
func unlinked(f *os.File) (bool, error) {
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 0, nil
}
