//go:build linux

package storage

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data, and only the metadata needed to read it
// back, to the device: an overwrite of already-allocated blocks commits
// no journal transaction, where File.Sync (fsync) commits one after
// every write for the changed mtime.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
