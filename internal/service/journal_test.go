package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"teem/internal/scenario"
)

// writeJournalFile hand-writes a journal of records, sequencing them in
// order — the fixture for recovery tests.
func writeJournalFile(t *testing.T, path string, recs []journalRecord) {
	t.Helper()
	var b bytes.Buffer
	for i, r := range recs {
		r.Seq = int64(i + 1)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// countFinishes re-reads a journal file and tallies finish records per id.
func countFinishes(t *testing.T, path string) map[string]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	finishes := map[string]int{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		if rec.Op == opFinish {
			finishes[rec.ID]++
		}
	}
	return finishes
}

// Recovery re-runs exactly the journal's uncompleted submissions, under
// their original ids, with byte-identical results, and never reuses an
// id from the previous epoch.
func TestJournalRecoveryRunsUncompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	writeJournalFile(t, path, []journalRecord{
		{Op: opSubmit, ID: "j1", Req: &JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}}},
		{Op: opStart, ID: "j1"},
		{Op: opSubmit, ID: "j2", Req: &JobRequest{Scenario: tinyScenarioJSON(t, "recovered"), Governors: []string{"ondemand"}}},
		{Op: opSubmit, ID: "j3", Req: &JobRequest{Preset: "sunlight", Governors: []string{"powersave"}}},
		{Op: opFinish, ID: "j3", Status: StatusDone},
	})

	s := newTestService(t, Options{Workers: 2, JournalPath: path})
	if got := s.Metrics().Recoveries(); got != 2 {
		t.Fatalf("recoveries = %d, want 2", got)
	}
	if _, err := s.Job("j3"); err == nil {
		t.Error("completed j3 was recovered; finished history must be dropped")
	}

	j1, err := s.Job("j1")
	if err != nil {
		t.Fatalf("j1 not recovered: %v", err)
	}
	j2, err := s.Job("j2")
	if err != nil {
		t.Fatalf("j2 not recovered: %v", err)
	}
	for _, j := range []*Job{j1, j2} {
		if js := waitTerminal(t, j, 30*time.Second); js.Status != StatusDone {
			t.Fatalf("recovered %s ended %s: %s", j.ID, js.Status, js.Error)
		}
	}

	// Byte-identical to the CLI path, exactly like a fresh submission.
	text, _, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scenario.RunGrid([]*scenario.Scenario{scenario.Sunlight()}, []string{"ondemand"}, scenario.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if text != grid.Render() {
		t.Error("recovered j1 result differs from the CLI render")
	}

	// New ids resume past the recovered epoch's maximum.
	nj, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "post-recovery")})
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID != "j4" {
		t.Errorf("post-recovery id = %s, want j4 (max recovered id was j3)", nj.ID)
	}
	waitTerminal(t, nj, 30*time.Second)

	// The journal holds at most one finish per id — recovery compacted
	// the old epoch away, and each re-run finished exactly once.
	s.Close()
	for id, n := range countFinishes(t, path) {
		if n > 1 {
			t.Errorf("journal holds %d finish records for %s, want at most 1", n, id)
		}
	}
}

// A missing or empty journal is a clean start, not an error.
func TestJournalMissingOrEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, path := range map[string]string{
		"missing": filepath.Join(dir, "nonexistent.ndjson"),
		"empty":   filepath.Join(dir, "empty.ndjson"),
	} {
		if name == "empty" {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := newTestService(t, Options{Workers: 1, JournalPath: path})
		if got := s.Metrics().Recoveries(); got != 0 {
			t.Errorf("%s journal: recoveries = %d, want 0", name, got)
		}
		j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "fresh-"+name)})
		if err != nil {
			t.Fatalf("%s journal: submit: %v", name, err)
		}
		if js := waitTerminal(t, j, 30*time.Second); js.Status != StatusDone {
			t.Fatalf("%s journal: job ended %s: %s", name, js.Status, js.Error)
		}
	}
}

// A crash mid-write leaves a torn final record: it is skipped and
// counted, and every intact record before it recovers normally.
func TestJournalTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	writeJournalFile(t, path, []journalRecord{
		{Op: opSubmit, ID: "j1", Req: &JobRequest{Scenario: tinyScenarioJSON(t, "survivor"), Governors: []string{"ondemand"}}},
	})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"op":"submit","id":"j2","req":{"pre`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	scan, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if scan.skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the torn tail)", scan.skipped)
	}
	if len(scan.pending) != 1 || scan.pending[0].id != "j1" {
		t.Fatalf("pending = %+v, want exactly j1", scan.pending)
	}

	s := newTestService(t, Options{Workers: 1, JournalPath: path})
	j, err := s.Job("j1")
	if err != nil {
		t.Fatal(err)
	}
	if js := waitTerminal(t, j, 30*time.Second); js.Status != StatusDone {
		t.Fatalf("survivor ended %s: %s", js.Status, js.Error)
	}
}

// Duplicate submits (a compaction artifact) and duplicate finishes are
// idempotent; an unparseable line in the middle is skipped.
func TestJournalDuplicateAndCorruptRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	req := &JobRequest{Preset: "sunlight"}
	writeJournalFile(t, path, []journalRecord{
		{Op: opSubmit, ID: "j1", Req: req},
		{Op: opSubmit, ID: "j1", Req: &JobRequest{Preset: "rush-hour"}}, // dup: first wins
		{Op: opSubmit, ID: "j2", Req: req},
		{Op: opFinish, ID: "j2", Status: StatusDone},
		{Op: opFinish, ID: "j2", Status: StatusDone}, // dup finish
		{Op: opFinish, ID: "j9", Status: StatusDone}, // finish before (without) submit
	})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	scan, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.pending) != 1 || scan.pending[0].id != "j1" {
		t.Fatalf("pending = %+v, want exactly j1", scan.pending)
	}
	if scan.pending[0].req.Preset != "sunlight" {
		t.Errorf("duplicate submit overrode the first record: %q", scan.pending[0].req.Preset)
	}
	if scan.dupFinishes != 1 {
		t.Errorf("dupFinishes = %d, want 1", scan.dupFinishes)
	}
	if scan.skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the non-JSON line)", scan.skipped)
	}
	if scan.maxID != 9 {
		t.Errorf("maxID = %d, want 9", scan.maxID)
	}
}

// Compaction keeps the journal bounded: a long submission history
// rewrites down to the live set instead of growing without limit.
func TestJournalCompactionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	s := newTestService(t, Options{Workers: 2, JournalPath: path, JournalCompactBytes: 4096})
	for i := 0; i < 40; i++ {
		j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "compact-"+string(rune('a'+i%26))+"-"+string(rune('a'+i/26)))})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 30*time.Second)
	}
	s.Close()
	if got := s.Metrics().m.journalCompactions.Value(); got < 1 {
		t.Errorf("journalCompactions = %d, want at least 1", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 16*4096 {
		t.Errorf("journal grew to %d bytes despite a 4096-byte compaction bound", st.Size())
	}
}

// Injected journal write errors degrade durability (counted, logged)
// but never job availability.
func TestJournalWriteErrorsDegradeNotFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	s := newTestService(t, Options{
		Workers:     2,
		JournalPath: path,
		Faults:      &FaultConfig{JournalErrEvery: 2},
	})
	for i := 0; i < 4; i++ {
		j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "flaky-journal-"+string(rune('a'+i)))})
		if err != nil {
			t.Fatal(err)
		}
		if js := waitTerminal(t, j, 30*time.Second); js.Status != StatusDone {
			t.Fatalf("job ended %s with journal faults: %s", js.Status, js.Error)
		}
	}
	if got := s.metrics.journalErrors.Value(); got == 0 {
		t.Error("journal error faults fired but journal_errors stayed 0")
	}
}

// Recovery of a journal whose every record is garbage is an empty clean
// start, and the skip counter reports the loss.
func TestJournalAllCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(path, []byte("garbage\n{\"op\":\"\"}\n\x00\x01\x02\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Workers: 1, JournalPath: path})
	if got := s.Metrics().Recoveries(); got != 0 {
		t.Errorf("recoveries = %d, want 0", got)
	}
	if got := s.Metrics().m.recoverySkipped.Value(); got == 0 {
		t.Error("recovery_skipped = 0, want > 0 for an all-corrupt journal")
	}
}

func TestParseJobID(t *testing.T) {
	for _, tc := range []struct {
		id string
		n  int
		ok bool
	}{
		{"j1", 1, true}, {"j42", 42, true}, {"j0", 0, true},
		{"x1", 0, false}, {"j", 0, false}, {"j-3", 0, false}, {"", 0, false},
	} {
		n, ok := parseJobID(tc.id)
		if n != tc.n || ok != tc.ok {
			t.Errorf("parseJobID(%q) = (%d, %v), want (%d, %v)", tc.id, n, ok, tc.n, tc.ok)
		}
	}
}

// The journal records a cancelled queued job as finished-cancelled, so
// recovery does not resurrect it.
func TestJournalCancelledJobNotRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	s := newTestService(t, Options{Workers: 1, JournalPath: path})
	blocker, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "doomed")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	_ = s.Cancel(blocker.ID)
	waitTerminal(t, blocker, 30*time.Second)
	s.Close()

	scan, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.pending) != 0 {
		ids := make([]string, len(scan.pending))
		for i, p := range scan.pending {
			ids[i] = p.id
		}
		t.Errorf("journal still holds pending jobs %s after every job went terminal", strings.Join(ids, ", "))
	}
}
