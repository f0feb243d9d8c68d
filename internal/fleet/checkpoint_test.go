package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"weakestfd/internal/explore"
)

func testSpec() Spec {
	return Spec{
		System: "fig1", N: 3, F: 2,
		CrashTimes: []int64{0}, MaxDepth: 12, Budget: 1024,
		MaxViolations: 1 << 20, Workers: 2,
	}
}

func testCheckpoint() *Checkpoint {
	spec := testSpec()
	return &Checkpoint{
		Schema:  CheckpointSchema,
		Spec:    spec,
		SpecKey: spec.Key(),
		Jobs:    10,
		Shards: []ShardRecord{
			{ID: 0, Lo: 0, Hi: 3, Result: &explore.Result{System: "fig1", Engine: "source+hash", Configs: 3, Runs: 100}},
			{ID: 2, Lo: 6, Hi: 10, Result: &explore.Result{System: "fig1", Engine: "source+hash", Configs: 4, Runs: 140,
				Violations: []*explore.Violation{{Property: "validity", Pattern: "p", Oracle: "o", Message: "m"}}}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	cp := testCheckpoint()
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("round trip drifted:\n got  %+v\n want %+v", got, cp)
	}
	if got.doneJobs() != 7 {
		t.Errorf("doneJobs = %d, want 7", got.doneJobs())
	}
	if want := []span{{0, 3}, {6, 10}}; !reflect.DeepEqual(got.doneSpans(), want) {
		t.Errorf("doneSpans = %v, want %v", got.doneSpans(), want)
	}
}

func TestCheckpointSpecKeyIgnoresWorkers(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.Workers = 7
	if a.Key() != b.Key() {
		t.Error("Spec.Key varies with Workers; checkpoints would refuse to resume at a different width")
	}
	b.MaxDepth++
	if a.Key() == b.Key() {
		t.Error("Spec.Key ignores MaxDepth; different sweeps would share checkpoints")
	}
}

// TestCheckpointRejectsLoudly drives every structural failure mode through
// LoadCheckpoint and demands an error naming the problem.
func TestCheckpointRejectsLoudly(t *testing.T) {
	dir := t.TempDir()
	write := func(t *testing.T, mutate func(c *Checkpoint)) string {
		t.Helper()
		cp := testCheckpoint()
		mutate(cp)
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	expectErr := func(t *testing.T, path, substr string) {
		t.Helper()
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("LoadCheckpoint accepted a checkpoint that should fail with %q", substr)
		}
		if !strings.Contains(err.Error(), substr) {
			t.Errorf("error %q does not name the problem (want substring %q)", err, substr)
		}
	}

	t.Run("missing-file", func(t *testing.T) {
		expectErr(t, filepath.Join(dir, "nope.json"), "reading checkpoint")
	})
	t.Run("corrupt-json", func(t *testing.T) {
		path := filepath.Join(dir, "torn.json")
		os.WriteFile(path, []byte(`{"schema": 1, "shards": [{"id"`), 0o644)
		expectErr(t, path, "not valid JSON")
	})
	t.Run("stale-schema", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Schema = CheckpointSchema + 1 }), "schema")
	})
	t.Run("schema-1", func(t *testing.T) {
		// Every schema-1 spec the CLI built carried the block enumerator's
		// bounds. Decoding drops them, so without the schema check the
		// stored key would fail to match and the refusal would wrongly
		// blame a hand edit.
		spec := `{"system":"fig1","n":3,"f":2,"max_blocks":3,"max_block":24,"max_depth":12,"budget":1024,"crash_times":[0]}`
		path := filepath.Join(dir, "schema1.json")
		data := `{"schema":1,"spec":` + spec + `,"spec_key":` + strconv.Quote(spec) + `,"jobs":10,"shards":[]}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, path, "checkpoint schema 1")
	})
	t.Run("schema-2", func(t *testing.T) {
		// Schema-2 shard results carry no steps count; merged into a
		// resumed sweep they would undercount its steps silently.
		path := write(t, func(c *Checkpoint) { c.Schema = 2 })
		expectErr(t, path, "checkpoint schema 2")
	})
	t.Run("spec-key-mismatch", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Spec.MaxDepth = 99 }), "spec_key")
	})
	t.Run("overlapping-shards", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) {
			c.Shards[1].Lo, c.Shards[1].Hi = 2, 6
			c.Shards[1].Result.Configs = 4
		}), "overlap")
	})
	t.Run("invalid-span", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Hi = 99 }), "invalid span")
	})
	t.Run("missing-result", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Result = nil }), "no result")
	})
	t.Run("configs-span-mismatch", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Result.Configs = 99 }), "configs")
	})
}

// TestWriteCheckpointAtomic asserts a rewrite never leaves a torn file
// behind: the temp file is cleaned up and the previous content survives a
// failed write directory.
func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	if err := WriteCheckpoint(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries after rewrites, want only the checkpoint", len(entries))
	}
}
