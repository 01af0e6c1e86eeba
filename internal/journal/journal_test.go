package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendAll(t *testing.T, s *Store, payloads [][]byte, syncEvery int) {
	t.Helper()
	w, err := s.Append(syncEvery)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, s *Store) ([][]byte, []Corruption) {
	t.Helper()
	var got [][]byte
	corr, err := s.Replay(func(_ int64, payload []byte) error {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, corr
}

func TestJournalRoundTripAcrossReopen(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		want = append(want, []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i))))
	}
	appendAll(t, s, want[:30], 7)
	appendAll(t, s, want[30:], 1) // reopen appends, never truncates

	got, corr := replayAll(t, s)
	if len(corr) != 0 {
		t.Fatalf("clean journal reported corruption: %v", corr)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestJournalMissingFileReplaysNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, corr := replayAll(t, s)
	if len(got) != 0 || len(corr) != 0 {
		t.Fatalf("missing journal replayed %d records, %d corruptions", len(got), len(corr))
	}
}

func TestJournalToleratesTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 8; i++ {
		want = append(want, []byte(fmt.Sprintf("unit-%d-payload", i)))
	}
	appendAll(t, s, want, 1)
	full, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	// Cut the journal at every possible byte offset: replay must never
	// error, and must recover exactly the records whose frames survived
	// intact, in order.
	for cut := 0; cut < len(full); cut++ {
		td := t.TempDir()
		s2, err := Open(td)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(td, journalName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := replayAll(t, s2)
		if len(got) > len(want) {
			t.Fatalf("cut %d: replayed more records than written", cut)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d corrupted silently: %q", cut, i, got[i])
			}
		}
	}
}

func TestJournalQuarantinesCorruptRecordAndResyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		want = append(want, []byte(fmt.Sprintf("unit-%d-payload-with-some-body", i)))
	}
	appendAll(t, s, want, 1)

	// Flip one payload byte in the middle record: that record must be
	// quarantined with its offset, and every other record must survive.
	path := filepath.Join(dir, journalName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + len(want[0])
	target := 5*frame + frameHeader + 3 // a payload byte of record 5
	full[target] ^= 0xff
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	got, corr := replayAll(t, s)
	if len(corr) != 1 {
		t.Fatalf("want 1 quarantined record, got %v", corr)
	}
	if corr[0].Offset != int64(5*frame) {
		t.Errorf("quarantine offset = %d, want %d", corr[0].Offset, 5*frame)
	}
	if !strings.Contains(corr[0].Reason, "checksum") {
		t.Errorf("quarantine reason = %q", corr[0].Reason)
	}
	if len(got) != 9 {
		t.Fatalf("replayed %d records, want 9 (one quarantined)", len(got))
	}
	wantLeft := append(append([][]byte{}, want[:5]...), want[6:]...)
	for i := range got {
		if !bytes.Equal(got[i], wantLeft[i]) {
			t.Errorf("surviving record %d mismatch: %q", i, got[i])
		}
	}
}

func TestJournalImplausibleLengthStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, [][]byte{[]byte("good")}, 1)
	// Append garbage claiming a multi-gigabyte record.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, corr := replayAll(t, s)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("replay = %q", got)
	}
	if len(corr) != 1 || !strings.Contains(corr[0].Reason, "framing lost") {
		t.Fatalf("corruption = %v", corr)
	}
}

func TestResetClearsJournalAndSnapshotsKeepsDocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, [][]byte{[]byte("r")}, 1)
	if err := s.WriteDoc("corpus.json", []byte(`{"bugs":{}}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, _ := replayAll(t, s); len(got) != 0 {
		t.Errorf("journal survived reset: %d records", len(got))
	}
	doc, err := s.ReadDoc("corpus.json")
	if err != nil || doc == nil {
		t.Errorf("corpus doc should survive reset: %q err=%v", doc, err)
	}
}

func TestDocsRoundTripAndMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.ReadDoc("meta.json"); err != nil || b != nil {
		t.Fatalf("missing doc: %q err=%v", b, err)
	}
	if err := s.WriteDoc("meta.json", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteDoc("meta.json", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadDoc("meta.json")
	if err != nil || string(b) != "v2" {
		t.Fatalf("doc = %q err=%v", b, err)
	}
}

func TestJournalRandomTruncationFuzz(t *testing.T) {
	// The crash model behind the campaign soak: append a batch, cut the
	// file at a random offset, reopen, append more, repeat. Replay must
	// always yield a prefix-consistent sequence (each surviving record
	// intact and in append order).
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	next := 0
	for round := 0; round < 20; round++ {
		w, err := s.Append(3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := w.Append([]byte(fmt.Sprintf("record-%04d", next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(path); err == nil && info.Size() > 0 && rng.Intn(2) == 0 {
			cut := rng.Int63n(info.Size() + 1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := replayAll(t, s)
		for _, rec := range got {
			var n int
			if _, err := fmt.Sscanf(string(rec), "record-%d", &n); err != nil {
				t.Fatalf("round %d: mangled record %q", round, rec)
			}
		}
	}
}

func TestReplayObserverSeesEveryCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 8; i++ {
		want = append(want, []byte(fmt.Sprintf("unit-%d-payload-with-some-body", i)))
	}
	appendAll(t, s, want, 1)

	path := filepath.Join(dir, journalName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + len(want[0])
	full[2*frame+frameHeader] ^= 0xff // corrupt record 2's payload
	full[5*frame+frameHeader] ^= 0xff // and record 5's
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	var seen []Corruption
	s.SetObserver(func(c Corruption) { seen = append(seen, c) })
	_, corr := replayAll(t, s)
	if len(corr) != 2 {
		t.Fatalf("want 2 quarantined records, got %v", corr)
	}
	if len(seen) != len(corr) {
		t.Fatalf("observer saw %d corruptions, replay returned %d", len(seen), len(corr))
	}
	for i := range corr {
		if seen[i] != corr[i] {
			t.Errorf("observer corruption %d = %v, replay returned %v", i, seen[i], corr[i])
		}
	}

	// Clearing the observer stops the callbacks.
	seen = nil
	s.SetObserver(nil)
	replayAll(t, s)
	if len(seen) != 0 {
		t.Fatalf("cleared observer still saw %d corruptions", len(seen))
	}
}

func TestReplayBytesMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 12; i++ {
		want = append(want, []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("y", i))))
	}
	appendAll(t, s, want, 3)

	image, err := s.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if image == nil {
		t.Fatal("JournalBytes returned nil for an existing journal")
	}

	var got [][]byte
	corr, err := ReplayBytes(image, func(_ int64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 0 {
		t.Fatalf("clean image reported corruption: %v", corr)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %q vs %q", i, got[i], want[i])
		}
	}

	// A flipped byte quarantines exactly like the on-disk path, and a
	// truncated image is a torn tail, not an error.
	off := 0
	for i := 0; i < 4; i++ {
		off += frameHeader + len(want[i])
	}
	flipped := append([]byte(nil), image...)
	flipped[off+frameHeader] ^= 0xff
	corr, err = ReplayBytes(flipped, func(int64, []byte) error { return nil })
	if err != nil || len(corr) != 1 || corr[0].Offset != int64(off) {
		t.Fatalf("flipped image: corr=%v err=%v (want one quarantine at %d)", corr, err, off)
	}
	corr, err = ReplayBytes(image[:len(image)-3], func(int64, []byte) error { return nil })
	if err != nil || len(corr) != 1 || !strings.Contains(corr[0].Reason, "torn") {
		t.Fatalf("truncated image: corr=%v err=%v (want one torn-tail corruption)", corr, err)
	}

	// A missing journal ships as nil bytes and replays to nothing.
	s2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	image2, err := s2.JournalBytes()
	if err != nil || image2 != nil {
		t.Fatalf("missing journal: image=%v err=%v", image2, err)
	}
}
