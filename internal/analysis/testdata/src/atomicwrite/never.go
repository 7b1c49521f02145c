//go:build never

package atomicwrite

import "os"

// NeverBuilt is excluded by its build constraint, so the loader does not
// analyze it and its raw state write is not a finding.
func NeverBuilt(statePath string, data []byte) error {
	return os.WriteFile(statePath, data, 0o644)
}
