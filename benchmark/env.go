package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// env says what the numbers were measured on, so a committed result is
// honest about, say, a 1-cpu container where no speed-up can appear.
type env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// Caches are cpu0's, as /sys reports them ("L2 unified 4096K").
	Caches    []string `json:"caches"`
	WorkDir   string   `json:"work_dir"`
	WorkDirFS string   `json:"work_dir_fs"`
	GitCommit string   `json:"git_commit"`
}

func readEnv(workDir string) env {
	return env{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), Caches: cpuCaches(),
		WorkDir: workDir, WorkDirFS: fsType(workDir), GitCommit: gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func cpuCaches() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			data, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(data))
		}
		out = append(out, fmt.Sprintf("L%s %s %s", read("level"), strings.ToLower(read("type")), read("size")))
	}
	return out
}

// fsType names the filesystem the campaign stores are written to.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitCommit reads HEAD by hand: the benchmark starts no processes but
// its own, and a checkout that is not a repository is not an error.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	return "unknown"
}
