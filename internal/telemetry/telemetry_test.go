package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"droplet/internal/memsys"
)

func validCore(start, end int64) CoreEpoch {
	c := CoreEpoch{Core: 0, StartCycle: start, EndCycle: end}
	span := end - start
	c.DepStall = span / 10
	c.QueueStall = span / 20
	c.BarrierStall = span / 20
	c.MemStall[3] = span / 4
	c.Base = span - c.DepStall - c.QueueStall - c.BarrierStall - c.MemStall[3]
	return c
}

func TestValidateRecordCore(t *testing.T) {
	good := validCore(0, 1000)
	if err := ValidateRecordCore(&good); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}

	leak := good
	leak.Base++ // components now sum past elapsed
	if err := ValidateRecordCore(&leak); err == nil {
		t.Error("conservation violation (over-attribution) accepted")
	}

	neg := good
	neg.DepStall = -1
	neg.Base = neg.Elapsed() - neg.QueueStall - neg.BarrierStall - neg.MemStall[3] - neg.DepStall
	if err := ValidateRecordCore(&neg); err == nil {
		t.Error("negative component accepted")
	}

	backwards := good
	backwards.StartCycle, backwards.EndCycle = backwards.EndCycle, backwards.StartCycle
	if err := ValidateRecordCore(&backwards); err == nil {
		t.Error("backwards window accepted")
	}
}

func synthRecord(epoch, start, end int64, cores int, final bool) *EpochRecord {
	rec := &EpochRecord{Epoch: epoch, MinCycle: end, Final: final}
	for c := 0; c < cores; c++ {
		ce := validCore(start, end)
		ce.Core = c
		rec.Cores = append(rec.Cores, ce)
	}
	return rec
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	meta := RunMeta{Benchmark: "b", Kernel: "k", Prefetcher: "nopf", Cores: 2, EpochCycles: 100}
	meta.FillLabels()
	if err := sink.Begin(&meta); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sink.Emit(synthRecord(i, i*100, (i+1)*100, 2, i == 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.End(); err != nil {
		t.Fatal(err)
	}

	got, n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || got.Benchmark != "b" || got.Cores != 2 {
		t.Errorf("round trip: n=%d meta=%+v", n, got)
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	write := func(recs ...*EpochRecord) *bytes.Buffer {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		meta := RunMeta{Prefetcher: "nopf", Cores: 2, EpochCycles: 100}
		meta.FillLabels()
		if err := sink.Begin(&meta); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := sink.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.End(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	cases := map[string]*bytes.Buffer{
		"out-of-sequence epoch": write(synthRecord(1, 0, 100, 2, true)),
		"wrong core count":      write(synthRecord(0, 0, 100, 1, true)),
		"no final marker":       write(synthRecord(0, 0, 100, 2, false)),
		"discontiguous windows": write(synthRecord(0, 0, 100, 2, false), synthRecord(1, 150, 200, 2, true)),
	}
	for name, buf := range cases {
		if _, _, err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	broken := synthRecord(0, 0, 100, 2, true)
	broken.Cores[1].Base++
	if _, _, err := ValidateJSONL(bytes.NewReader(write(broken).Bytes())); err == nil {
		t.Error("conservation violation accepted by stream validator")
	}

	if _, _, err := ValidateJSONL(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, _, err := ValidateJSONL(strings.NewReader("{\"epoch\":0}\n")); err == nil {
		t.Error("stream without meta line accepted")
	}
	for _, cores := range []int{memsys.MaxCores + 1, 4000000000} {
		if _, _, err := ValidateJSONL(strings.NewReader(wideMeta(cores))); err == nil {
			t.Errorf("meta line with %d cores accepted", cores)
		}
	}
}

// wideMeta is a lone meta line claiming the given core count.
func wideMeta(cores int) string {
	return fmt.Sprintf(`{"meta":{"prefetcher":"nopf","cores":%d,"epoch_cycles":100,"levels":["L1","L2","L3","DRAM"]}}`+"\n", cores)
}

// FuzzValidateJSONL checks that ValidateJSONL never panics (nor sizes
// anything from an untrusted count), and that a stream it accepts still
// validates to the same meta and record count after its meta line is
// re-encoded.
func FuzzValidateJSONL(f *testing.F) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	meta := RunMeta{Benchmark: "b", Prefetcher: "nopf", Cores: 2, EpochCycles: 100}
	meta.FillLabels()
	if err := sink.Begin(&meta); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 2; i++ {
		if err := sink.Emit(synthRecord(i, i*100, (i+1)*100, 2, i == 1)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add([]byte(wideMeta(4000000000)))
	f.Add([]byte{})
	f.Add([]byte("{\"meta\":\x00]\n{{"))

	f.Fuzz(func(t *testing.T, in []byte) {
		meta, n, err := ValidateJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(metaLine{Meta: meta}); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(in))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		sc.Scan() // the meta line, replaced above
		for sc.Scan() {
			again.Write(sc.Bytes())
			again.WriteByte('\n')
		}
		meta2, n2, err := ValidateJSONL(&again)
		if err != nil || n2 != n || !reflect.DeepEqual(meta2, meta) {
			t.Fatalf("accepted stream re-validates to %+v, %d records, %v; want %+v, %d records", meta2, n2, err, meta, n)
		}
	})
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	meta := RunMeta{Prefetcher: "nopf", Cores: 2, EpochCycles: 100}
	meta.FillLabels()
	if err := sink.Begin(&meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(synthRecord(0, 0, 100, 2, true)); err != nil {
		t.Fatal(err)
	}
	if err := sink.End(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 core rows, got %d lines", len(lines))
	}
	cols := strings.Count(lines[0], ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Errorf("row %d has %d columns, header has %d", i, strings.Count(l, ",")+1, cols+1)
		}
	}
	if !strings.HasPrefix(lines[0], "epoch,min_cycle,core,") || !strings.Contains(lines[0], "stall_DRAM") {
		t.Errorf("unexpected header %q", lines[0])
	}
}

func TestMemorySinkCopies(t *testing.T) {
	sink := &MemorySink{}
	meta := RunMeta{Prefetcher: "nopf", Cores: 1, EpochCycles: 100}
	meta.FillLabels()
	if err := sink.Begin(&meta); err != nil {
		t.Fatal(err)
	}
	rec := synthRecord(0, 0, 100, 1, false)
	rec.Engines = append(rec.Engines, EngineEpoch{Name: "stream", Issued: 1})
	mpp := MPPEpoch{Triggers: 1}
	rec.MPP = &mpp
	if err := sink.Emit(rec); err != nil {
		t.Fatal(err)
	}
	// Mutate the collector-owned record; the retained copy must not move.
	rec.Cores[0].Base = -999
	rec.Engines[0].Issued = 999
	mpp.Triggers = 999
	got := sink.Records[0]
	if got.Cores[0].Base == -999 || got.Engines[0].Issued == 999 || got.MPP.Triggers == 999 {
		t.Error("MemorySink aliases the collector's reused record")
	}
	if err := sink.End(); err != nil {
		t.Fatal(err)
	}
	if err := sink.End(); err == nil {
		t.Error("double End accepted")
	}
}
