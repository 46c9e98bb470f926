package journal

// FuzzReplay feeds arbitrary bytes to OpenFile and Replay, as a crash or a
// disk fault could leave them. The oracles:
//
//   - nothing panics;
//   - only hash-valid frames replay: re-framing the replayed records
//     reproduces the file OpenFile kept, byte for byte, and that file is a
//     prefix of the input;
//   - a second open truncates nothing and replays the same records.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func FuzzReplay(f *testing.F) {
	valid := append(frame("visit", []byte(`{"seq":1}`)), frame("checkpoint", []byte(`{"done":[{"lo":0,"hi":1}]}`))...)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 0x20
	for _, seed := range [][]byte{
		nil,
		valid,
		valid[:len(valid)-3], // torn tail
		flipped,              // corrupt last frame
		append(bytes.Clone(valid), "garbage\n"...),          // junk after intact frames
		append([]byte("0123456789abcdef x {}\n"), valid...), // bad hash first
		[]byte("\n\n\n"), // empty lines
		frame("k", []byte("payload with \r and \x00 bytes")), // odd bytes in a payload
		append(frame("visit", nil), frame("visit", nil)...),  // empty payloads
		[]byte(string(valid[:hashLen]) + "  visit {}\n"),     // empty kind
		bytes.ToUpper(frame("visit", []byte(`{"seq":2}`))),   // upper-case hash
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, kept := openReplay(t, path)
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("open rewrote the log instead of truncating it:\n in %q\nout %q", data, kept)
		}
		var reframed []byte
		for _, r := range first {
			reframed = append(reframed, frame(r.Kind, r.Payload)...)
		}
		if !bytes.Equal(reframed, kept) {
			t.Fatalf("replayed records do not re-frame to the kept log:\n kept %q\nframes %q", kept, reframed)
		}
		second, again := openReplay(t, path)
		if !bytes.Equal(again, kept) {
			t.Fatalf("second open truncated %d more bytes", len(kept)-len(again))
		}
		if len(second) != len(first) {
			t.Fatalf("second open replayed %d records, first %d", len(second), len(first))
		}
	})
}

// openReplay opens the file journal at path, replays it, closes it, and
// returns the records and the file's contents afterwards.
func openReplay(t *testing.T, path string) ([]Record, []byte) {
	t.Helper()
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := Replay(b, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay of an opened journal: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, kept
}
