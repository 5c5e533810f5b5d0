package load

import (
	"slices"
	"testing"
)

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a := w.Streams(7, FirstWindow, 4000)
		b := w.Streams(7, FirstWindow, 4000)
		c := w.Streams(8, FirstWindow, 4000)
		for conn := range a {
			if !slices.Equal(a[conn], b[conn]) {
				t.Fatalf("%s: seed 7 gave two different streams for connection %d", w.Name, conn)
			}
			if slices.Equal(a[conn], c[conn]) {
				t.Fatalf("%s: seeds 7 and 8 gave the same stream for connection %d", w.Name, conn)
			}
		}
		gets := 0
		for _, op := range a[0] {
			if int(op.Key()) >= w.Keys {
				t.Fatalf("%s: key %d outside the keyspace", w.Name, op.Key())
			}
			if op.IsGet() {
				gets++
			}
		}
		if pct := 100 * gets / len(a[0]); pct < w.GetPct-3 || pct > w.GetPct+3 {
			t.Errorf("%s: %d%% GETs, want about %d%%", w.Name, pct, w.GetPct)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	w, err := ByName("ycsb-b-zipf-d1")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	ops := w.Streams(1, FirstWindow, 100_000)[0]
	for _, op := range ops {
		counts[op.Key()]++
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	// Under θ = 0.99 over 200k keys the hottest key draws about 8% of ops.
	if top < len(ops)/20 {
		t.Errorf("hottest key drew %d of %d ops; the stream is not zipfian", top, len(ops))
	}
}

func TestCheckAcceptsOnlyWrittenValues(t *testing.T) {
	w := Workload{Name: "t", Keys: 100, ValueSize: 64, Depth: 1, GetPct: 50}
	b := NewBook(w, 3)
	ops := b.Phase(PhaseWarmup, 200)[1]
	set, get := -1, -1
	for i, op := range ops {
		if op.IsGet() && get < 0 {
			get = i
		}
		if !op.IsGet() && set < 0 {
			set = i
		}
	}
	if set < 0 || get < 0 {
		t.Fatal("stream lacks a SET or a GET")
	}
	k := ops[set].Key()
	good := AppendValue(nil, k, Version(PhaseWarmup, 1, set, k), w.ValueSize)
	if err := b.Check(k, good, nil); err != nil {
		t.Fatalf("written value rejected: %v", err)
	}
	pre := AppendValue(nil, 42, Version(PhasePreload, 0, 42, 42), w.ValueSize)
	if err := b.Check(42, pre, nil); err != nil {
		t.Fatalf("set-up value rejected: %v", err)
	}

	tampered := slices.Clone(good)
	tampered[len(tampered)/2] ^= 1
	other := (k + 1) % uint32(w.Keys)
	for name, c := range map[string]struct {
		key uint32
		val []byte
	}{
		"absent":           {k, nil},
		"tampered byte":    {k, tampered},
		"truncated":        {k, good[:len(good)-1]},
		"other key":        {other, good},
		"set-up of other":  {other, pre},
		"version of a GET": {ops[get].Key(), AppendValue(nil, ops[get].Key(), Version(PhaseWarmup, 1, get, ops[get].Key()), w.ValueSize)},
		"unknown phase":    {k, AppendValue(nil, k, Version(FirstWindow+5, 0, 0, k), w.ValueSize)},
	} {
		if err := b.Check(c.key, c.val, nil); err == nil {
			t.Errorf("%s: value accepted", name)
		}
	}
}

func TestParseInfo(t *testing.T) {
	got := parseInfo([]byte("# Stats\r\ntotal_commands_processed:12\r\nstore_health:ok\r\npipelines_processed:3\r\n"))
	if got["total_commands_processed"] != 12 || got["pipelines_processed"] != 3 || len(got) != 2 {
		t.Fatalf("parseInfo = %v", got)
	}
}
