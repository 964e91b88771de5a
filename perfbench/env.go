package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// info identifies what a result measured, so that results of unlike
// cases are never compared: the workload definition and its fingerprint,
// the worker count, the host and the code.
type info struct {
	Workload    string     `json:"workload"`
	Why         string     `json:"why"`
	Definition  definition `json:"definition"`
	Key         string     `json:"definition_key"`
	Fingerprint string     `json:"fingerprint"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Seed        uint64     `json:"seed"`
	Seconds     float64    `json:"seconds"`
	Trace       bool       `json:"trace"`
	Small       bool       `json:"small"`
	GoVersion   string     `json:"go"`
	CPU         string     `json:"cpu"`
	Commit      string     `json:"commit"`
	Source      string     `json:"source_sha"`
}

func describe(w *workload, o options, procs int) info {
	in := info{
		Workload: w.name, Why: w.why, Definition: w.def, Key: w.def.key(),
		GOMAXPROCS: procs, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Small: o.small,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit(), Source: sourceDigest("."),
	}
	b, _ := json.Marshal(struct {
		Definition definition
		Procs      int
		Trace      bool
	}{w.def, procs, o.trace})
	in.Fingerprint = shortHash(b)
	return in
}

// cpuModel returns the "model name" of /proc/cpuinfo, or "" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// commit resolves .git/HEAD of the working directory, or returns "" when
// the checkout is not a git repository.
func commit() string {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ""
}

// sourceDigest hashes the Go sources and module files under root, so two
// results can be matched to the code that produced them even where the
// checkout carries no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
