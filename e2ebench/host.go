package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"updlrm/internal/tensor"
)

// fingerprint identifies the host a result was measured on, so numbers
// from different machines are never compared silently.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	AVX2       bool   `json:"avx2"`
}

func hostFingerprint(kernel tensor.Kernel) fingerprint {
	return fingerprint{
		CPU:        cpuBrand(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Arch:       runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     kernel.String(),
		AVX2:       tensor.FastVectorized(),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s arch=%s kernel=%s avx2=%v",
		f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.Arch, f.Kernel, f.AVX2)
}

// cpuBrand returns the processor model Linux reports, or "unknown"
// where there is none.
func cpuBrand() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
