// Package atomicio holds the sanctioned crash-consistent writers for the
// serve/dispatch tier's state and checkpoint files. A plain os.WriteFile
// truncates the destination before writing, so a crash between truncate and
// flush leaves a torn file — and a torn checkpoint is exactly the artifact
// the dispatcher's failover protocol trusts to restore a shard.
//
// WriteFile stages the bytes in a sibling temp file and renames it over the
// destination; rename within a directory is atomic on POSIX filesystems, so
// readers observe either the old complete file or the new complete file,
// never a prefix. It syncs neither the file nor its directory, so it
// survives a process kill, not a power loss; rrserve's chunk store and
// manifests write through it.
//
// Slots keeps one record stream in two slot files written alternately in
// place, each record checksummed and synced with fdatasync before the
// writer moves on: the newest record that verifies survives a power loss,
// and a torn write costs only the record being written. The dispatcher's
// per-shard state writes through it.
//
// The atomicwrite analyzer (internal/analysis) enforces that state-path
// writes go through this package.
package atomicio

import "os"

// WriteFile writes data to path crash-consistently: the bytes land in
// path+".tmp" first and are renamed over path only once fully written. On a
// staging-write error the temp file may be left behind; the next successful
// write to the same path reuses (and truncates) it.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
