package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine is the fingerprint every report carries.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Flush      string `json:"flush_policy"`
}

func fingerprint(procs int) machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		GitRev: "unknown",
		Flush:  "local backend: fsync of every member and manifest, directory fsync on commit; reads mostly hit the OS page cache"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The binary is built inside a checkout that need not be a git
	// repository; the revision is there only when the toolchain stamped it.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.GitRev = s.Value
			}
		}
	}
	return m
}
