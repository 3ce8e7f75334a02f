package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/sim"
	"droplet/internal/simreq"
)

// fieldsOf returns the field names of a simreq.FieldErrors, failing the
// test on any other error.
func fieldsOf(t *testing.T, err error) []string {
	t.Helper()
	var fe simreq.FieldErrors
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a simreq.FieldErrors", err)
	}
	var fields []string
	for _, f := range fe {
		fields = append(fields, f.Field)
	}
	return fields
}

// TestBadFlagsFailTogether: every invalid machine flag comes back in one
// error from resolve, which runs before any graph is read or trace
// built (the missing -graphfile is never opened), in both modes.
func TestBadFlagsFailTogether(t *testing.T) {
	bad := []string{"-scale", "bogus", "-replacement", "nope", "-sample-interval", "-1", "-graphfile", "missing.el"}
	want := []string{"scale", "replacement", "sampling.interval_epochs"}
	for _, mode := range [][]string{nil, {"-matrix", "fig11"}} {
		_, _, err := parseFlags(append(mode, bad...)).resolve()
		if got := fieldsOf(t, err); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: invalid fields %v, want %v", mode, got, want)
		}
	}

	// A bad entry in the -matrix pfx list is reported with the rest.
	_, _, err := parseFlags([]string{"-matrix", "pfx", "-prefetcher", "nopf,bogus", "-cores", "-2"}).resolve()
	if got, want := fieldsOf(t, err), []string{"cores", "prefetcher"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pfx list: invalid fields %v, want %v", got, want)
	}
}

// TestFlagsLowerToMachineOf: a valid flag set yields exactly the machine
// and options exp.MachineOf builds for the equivalent request; -llc only
// resizes the LLC.
func TestFlagsLowerToMachineOf(t *testing.T) {
	c := parseFlags([]string{
		"-algo", "bfs", "-dataset", "road", "-scale", "full", "-cores", "2",
		"-prefetcher", "ghb", "-replacement", "drrip", "-replacement-l1", "srrip",
		"-replacement-l2", "ship", "-epoch", "5000", "-sample-interval", "8",
		"-sample-detail", "2", "-sample-warmup", "3", "-warming", "none",
	})
	rv, pfx, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if pfx != nil {
		t.Errorf("single run resolved a pfx list %v", pfx)
	}
	want, err := simreq.Request{
		Benchmark: "BFS-road", Scale: "full", Cores: 2, Prefetcher: "ghb",
		Replacement: "drrip", ReplacementL1: "srrip", ReplacementL2: "ship",
		EpochCycles: 5000,
		Sampling:    &simreq.Sampling{IntervalEpochs: 8, DetailEpochs: 2, WarmupEpochs: 3, Warming: "none"},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv, want) {
		t.Fatalf("flags resolved to %+v, want %+v", rv, want)
	}
	cfg, opts := c.machine(rv)
	wantCfg, wantOpts := exp.MachineOf(want)
	if !reflect.DeepEqual(cfg, wantCfg) || !reflect.DeepEqual(opts, wantOpts) {
		t.Errorf("flags lowered to %+v / %+v, want exp.MachineOf's %+v / %+v", cfg, opts, wantCfg, wantOpts)
	}

	c.llcKB = 64
	cfg, _ = c.machine(rv)
	wantCfg.LLC.SizeBytes = 64 << 10
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("-llc 64 lowered to %+v, want %+v", cfg, wantCfg)
	}
}

// TestMatrixPrefetcherList: under -matrix an explicit -prefetcher
// restricts pfx to the listed engines; the single-run default does not.
func TestMatrixPrefetcherList(t *testing.T) {
	_, pfx, err := parseFlags([]string{"-matrix", "pfx", "-prefetcher", "nopf, droplet"}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.PrefetcherKind{core.NoPrefetch, core.DROPLET}; !reflect.DeepEqual(pfx, want) {
		t.Errorf("pfx = %v, want %v", pfx, want)
	}
	if _, pfx, err = parseFlags([]string{"-matrix", "pfx"}).resolve(); err != nil || pfx != nil {
		t.Errorf("default -prefetcher under -matrix: pfx %v, err %v; want no restriction", pfx, err)
	}
}

// TestMatrixRejectsSingleRunFlags: a flag that configures only one
// simulation's input or output is an error naming it under -matrix,
// before any table runs, not silently ignored.
func TestMatrixRejectsSingleRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-llc", "64"}, {"-stream"}, {"-graphfile", "g.el"}, {"-json"},
		{"-footprint", "fp.json"}, {"-telemetry", "jsonl"}, {"-telemetry-out", "e.jsonl"},
	} {
		c := parseFlags(append([]string{"-matrix", "fig1"}, args...))
		rv, pfx, err := c.resolve()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := runMatrix(c, rv, pfx); err == nil || !strings.HasPrefix(err.Error(), args[0]+":") {
			t.Errorf("-matrix fig1 %v: error %v, want one naming %s", args, err, args[0])
		}
	}
}

// TestFootprintReportsResolvedRun: the -footprint report names the run
// that was simulated, not the raw flags: "-cores 0" resolves to the
// default four cores, and the benchmark carries its canonical name.
func TestFootprintReportsResolvedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.json")
	c := parseFlags([]string{"-algo", "pr", "-dataset", "road", "-cores", "0", "-footprint", path})
	rv, _, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFootprint(c.runFlags, rv, &sim.Result{Instructions: 7, Cycles: 9}, 11, 13); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got footprintReport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := footprintReport{Benchmark: "PR-road", Scale: "quick", Cores: 4, Events: 11, Instructions: 7, Cycles: 9, PeakHeapInuse: 13}
	if got != want {
		t.Errorf("footprint report = %+v, want %+v", got, want)
	}
}
