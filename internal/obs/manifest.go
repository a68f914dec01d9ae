package obs

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest records everything needed to reproduce a run: the invoking
// tool and arguments, the generator seed, the tool-specific
// configuration, the source revision and the host. Every artifact
// written into results/ should sit next to (or embed) one.
type Manifest struct {
	// Tool is the producing command (e.g. "gbpol", "gbbench").
	Tool string `json:"tool"`
	// Args is the command line after the tool name.
	Args []string `json:"args,omitempty"`
	// Time is the run's start time, RFC 3339.
	Time string `json:"time"`
	// Seed is the generator seed driving the molecules.
	Seed int64 `json:"seed"`
	// Config carries tool-specific knobs (flag values, scales, ε).
	Config map[string]any `json:"config,omitempty"`
	// Git is `git describe --always --dirty` of the working tree, or
	// "unknown" outside a repository.
	Git string `json:"git"`
	// Host, OS, Arch, CPUs and GoVersion describe the machine the run
	// executed on (the replay host — modeled topology lives in Config).
	Host      string `json:"host"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go"`
}

// NewManifest collects host and revision info around the given
// tool/seed/config triple. Args defaults to os.Args[1:].
func NewManifest(tool string, seed int64, config map[string]any) *Manifest {
	host, _ := os.Hostname()
	m := &Manifest{
		Tool:      tool,
		Time:      time.Now().Format(time.RFC3339),
		Seed:      seed,
		Config:    config,
		Git:       gitDescribe(),
		Host:      host,
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if len(os.Args) > 1 {
		m.Args = append([]string(nil), os.Args[1:]...)
	}
	return m
}

// gitDescribe best-effort identifies the source revision
// (`git describe --always --dirty`, "unknown" outside a checkout).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteJSON emits the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path (0644).
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
