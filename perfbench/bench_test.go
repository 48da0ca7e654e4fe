package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"phast"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the benchmark re-executes itself in a child role.
func TestMain(m *testing.M) {
	if child, err := runChild(os.Args[1:], os.Stdout); child {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func unitsOf(defs []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// TestDeclaredMatchesCode keeps BENCHMARK.json and the benchmark's own
// metric and workload lists in step.
func TestDeclaredMatchesCode(t *testing.T) {
	d := readDeclared(t)
	code := func(defs []metricDef) map[string]string {
		m := make(map[string]string, len(defs))
		for _, x := range defs {
			m[x.name] = x.unit
		}
		return m
	}
	if got, want := code(endToEnd), unitsOf(d.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics: code %v, BENCHMARK.json %v", got, want)
	}
	if got, want := code(perLayerDefs), unitsOf(d.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics: code %v, BENCHMARK.json %v", got, want)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declaredNames []string
	for _, w := range d.Work {
		declaredNames = append(declaredNames, w.Name)
	}
	if !reflect.DeepEqual(names, declaredNames) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, declaredNames)
	}
}

// TestEveryWorkloadPrintsDeclaredMetrics runs a short europe-xs mode of
// every workload, untraced and traced, and checks that the last line
// holds exactly the declared metrics with their units and no failures.
func TestEveryWorkloadPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	work := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--root", "..", "--work", work, "--preset", string(phast.EuropeXS),
					"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", trace}
				if err := runBench(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := unitsOf(d.EndToEnd)
				if trace == "1" {
					want = unitsOf(d.PerLayer)
				}
				got := make(map[string]string, len(rep.Metrics))
				for name, m := range rep.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
			})
		}
	}
}

// TestSeedReproducesInputs: each caller's sources, targets, think
// times and verification sample depend on the seed and the caller
// alone.
func TestSeedReproducesInputs(t *testing.T) {
	var swap workload
	for _, w := range workloads {
		if w.name == "serve-swap" {
			swap = w
		}
	}
	if swap.think == 0 {
		t.Fatal("no serve-swap workload with a think time")
	}
	gen := func(seed int64, user int) (verts []int32, pauses []time.Duration, keeps []bool) {
		in := newUserStream(seed, user, 1000, swap)
		for i := 0; i < 200; i++ {
			pauses = append(pauses, in.pause())
			keeps = append(keeps, in.keep())
			verts = append(verts, in.next(), in.next())
		}
		return verts, pauses, keeps
	}
	v1, p1, k1 := gen(5, 3)
	v2, p2, k2 := gen(5, 3)
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(k1, k2) {
		t.Fatal("the same seed gave different inputs")
	}
	for _, other := range [][2]int64{{6, 3}, {5, 4}} {
		v3, p3, _ := gen(other[0], int(other[1]))
		if reflect.DeepEqual(v1, v3) || reflect.DeepEqual(p1, p3) {
			t.Fatalf("seed %d caller %d gave the inputs of seed 5 caller 3", other[0], other[1])
		}
	}
	var total time.Duration
	for _, p := range p1 {
		total += p
	}
	if mean := total / time.Duration(len(p1)); mean < swap.think/2 || mean > 2*swap.think {
		t.Errorf("mean think time %v, want about %v", mean, swap.think)
	}
}

// TestVerifierRejectsCorruptedDistance serves a tree and a routed
// distance on europe-xs, checks both pass, then corrupts one label of
// each and checks the verifier counts a failure.
func TestVerifierRejectsCorruptedDistance(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	man, err := prepare(root, t.TempDir(), phast.EuropeXS)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := phast.LoadSnapshot(man.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(eng, man, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{man: man, ref: ref}

	srv, err := eng.Serve(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Query(context.Background(), 17)
	if err != nil {
		t.Fatal(err)
	}
	tree := append([]uint32(nil), res.Distances()...)
	res.Release()
	r.verifyTrees([]keptTree{{source: 17, dist: tree}})
	if r.fail.Load() != 0 {
		t.Fatal("a correct tree failed verification")
	}
	tree[len(tree)/2]++
	r.verifyTrees([]keptTree{{source: 17, dist: tree}})
	if r.fail.Load() != 1 {
		t.Fatalf("corrupted tree: %d failures, want 1", r.fail.Load())
	}

	sh, err := eng.ServeSharded(shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	d, err := sh.Distance(context.Background(), 17, 99)
	if err != nil {
		t.Fatal(err)
	}
	r.verifyRouted([]opRecord{{source: 17, target: 99, dist: d}})
	if r.fail.Load() != 1 {
		t.Fatal("a correct routed distance failed verification")
	}
	r.verifyRouted([]opRecord{{source: 17, target: 99, dist: d + 1}})
	if r.fail.Load() != 2 {
		t.Fatalf("corrupted distance: %d failures, want 2", r.fail.Load())
	}
}

// TestCalmSlices: slices within the steal limit are calm; when fewer
// than a quarter are, the quarter with the least steal is; unreadable
// steal leaves every slice calm.
func TestCalmSlices(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0, 40, 41, 0}, []bool{true, true, false, true}},
		{[]float64{300, 90, 200, 100, 250}, []bool{false, true, false, true, false}},
		{[]float64{300, math.NaN(), 200}, []bool{true, true, true}},
	} {
		if got := calm(c.steal, 2); !reflect.DeepEqual(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
