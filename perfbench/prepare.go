package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"phast"
)

// childRoleEnv selects a child role when the benchmark re-executes
// itself: the snapshot build and the host probe run in processes of
// their own, so neither the hierarchy build nor the probe's scan buffer
// reaches the measured process's peak RSS, and a traced run measures
// its untraced twin in a fresh process.
const childRoleEnv = "PHASTBENCH_CHILD"

// manifest describes one prepared snapshot. The prepare child prints it
// and stores it beside the snapshot.
type manifest struct {
	Key      string `json:"key"`
	Preset   string `json:"preset"`
	Snapshot string `json:"snapshot"`
	Bytes    int64  `json:"snapshot_bytes"`
	Vertices int    `json:"vertices"`
	Arcs     int    `json:"arcs"`
	// GraphFNV fingerprints the generator's graph, so the measured
	// process can check that the graph it verifies against (the one the
	// snapshot restores) is the one the hierarchy was built from.
	GraphFNV string `json:"graph_fnv"`
	// BuildSeconds and BuildStats are diagnostics of the untimed build
	// (generation excluded); they never gate.
	BuildSeconds float64          `json:"build_s"`
	BuildStats   phast.BuildStats `json:"build_stats"`
	Cached       bool             `json:"cached"`
}

// hostProbe is the host-drift diagnostic: fixed work whose time moves
// only with the host, measured at the start of every run.
type hostProbe struct {
	CPUMs  float64 `json:"cpu_loop_ms"`
	ScanMs float64 `json:"mem_scan_ms"`
}

// runChild runs the role named by childRoleEnv and reports whether
// there was one.
func runChild(args []string, stdout io.Writer) (bool, error) {
	switch os.Getenv(childRoleEnv) {
	case "":
		return false, nil
	case "prepare":
		if len(args) != 3 {
			return true, fmt.Errorf("prepare: want <root> <dir> <preset>, got %q", args)
		}
		m, err := prepare(args[0], args[1], phast.RoadPreset(args[2]))
		if err != nil {
			return true, err
		}
		return true, json.NewEncoder(stdout).Encode(m)
	case "hostprobe":
		return true, json.NewEncoder(stdout).Encode(probeHost())
	case "untraced":
		return true, runBench(args, stdout)
	default:
		return true, fmt.Errorf("unknown child role %q", os.Getenv(childRoleEnv))
	}
}

// spawn re-executes this binary in the given child role, waits for it
// and decodes the last line it prints into out.
func spawn(role string, out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childRoleEnv+"="+role)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
		return fmt.Errorf("%s child output: %w", role, err)
	}
	return nil
}

// sourceKey hashes every Go source and module file under root (the
// build and benchmark output directory excluded), so a cached snapshot
// is reused only by the exact source it was built from.
func sourceKey(root, skip string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (path == skip || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// graphFingerprint is FNV-64a over the graph's CSR arrays.
func graphFingerprint(g *phast.Graph) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint32) {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:4])
	}
	for _, f := range g.FirstOut() {
		put(uint32(f))
	}
	for _, a := range g.ArcList() {
		put(uint32(a.Head))
		put(a.Weight)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// prepare builds the preset's engine with default Options and saves its
// snapshot under dir, unless a snapshot built from the same source is
// already there.
func prepare(root, dir string, preset phast.RoadPreset) (*manifest, error) {
	key, err := sourceKey(root, dir)
	if err != nil {
		return nil, fmt.Errorf("hash sources: %w", err)
	}
	snapDir := filepath.Join(dir, "snapshots", string(preset)+"-"+key)
	manPath := filepath.Join(snapDir, "manifest.json")
	if data, err := os.ReadFile(manPath); err == nil {
		var m manifest
		if err := json.Unmarshal(data, &m); err == nil && m.Key == key {
			m.Cached = true
			return &m, nil
		}
	}
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	net, err := phast.GenerateRoadNetworkPreset(preset, phast.TravelTime)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	eng, err := phast.Preprocess(net.Graph, nil)
	if err != nil {
		return nil, err
	}
	build := time.Since(start).Seconds()
	m := &manifest{
		Key:          key,
		Preset:       string(preset),
		Snapshot:     filepath.Join(snapDir, "engine.snap"),
		Vertices:     net.Graph.NumVertices(),
		Arcs:         net.Graph.NumArcs(),
		GraphFNV:     graphFingerprint(net.Graph),
		BuildSeconds: build,
		BuildStats:   eng.BuildStats(),
	}
	if err := eng.SaveSnapshotFile(m.Snapshot); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	st, err := os.Stat(m.Snapshot)
	if err != nil {
		return nil, err
	}
	m.Bytes = st.Size()
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	// The manifest is written last: its presence marks a complete entry.
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// probeSink keeps the compiler from discarding the probe's loops.
var probeSink uint64

// probeHost times a fixed pure-Go integer loop and a scan over a
// 64 MiB buffer.
func probeHost() hostProbe {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	cpu := time.Since(start)

	buf := make([]uint64, 8<<20)
	for i := range buf {
		buf[i] = uint64(i) ^ x
	}
	start = time.Now()
	var sum uint64
	for pass := 0; pass < 8; pass++ {
		for _, v := range buf {
			sum += v
		}
	}
	scan := time.Since(start)
	probeSink = sum
	return hostProbe{CPUMs: ms(cpu), ScanMs: ms(scan)}
}
