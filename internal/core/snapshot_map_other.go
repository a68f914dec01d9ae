//go:build !linux

package core

import "os"

// mapSnapshot reads the file at path: hosts other than Linux read it whole
// (snapshot_map_linux.go maps it). release does nothing.
func mapSnapshot(path string) (data []byte, release func(), err error) {
	data, err = os.ReadFile(path)
	return data, func() {}, err
}
