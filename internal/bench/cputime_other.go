//go:build !unix

package bench

import "time"

// processCPU is unavailable here; stages report a CPU time of zero.
func processCPU() time.Duration { return 0 }
