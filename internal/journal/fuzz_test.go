package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad holds Load to the torn-tail rule on arbitrary file contents
// (seed corpus in testdata/fuzz/FuzzLoad): the kept file is a line-aligned
// prefix of the input whose non-empty lines are exactly the returned
// records, each valid JSON; the line after that prefix is unterminated or
// invalid, so no complete record is dropped; a second Load changes nothing;
// and one Append after OpenAppend(path, true) adds exactly one record.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("kept %q is not a line-aligned prefix of %q", kept, data)
		}
		var lines [][]byte
		for _, line := range bytes.Split(bytes.TrimSuffix(kept, []byte("\n")), []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
		if len(records) != len(lines) {
			t.Fatalf("%d records from %d non-empty kept lines", len(records), len(lines))
		}
		for i, rec := range records {
			if !bytes.Equal(rec, lines[i]) || !json.Valid(rec) {
				t.Fatalf("record %d is %q, kept line %q", i, rec, lines[i])
			}
		}
		rest := data[len(kept):]
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 && (nl == 0 || json.Valid(rest[:nl])) {
			t.Fatalf("dropped the complete line %q", rest[:nl])
		}

		again, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		keptAgain, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(keptAgain, kept) || len(again) != len(records) {
			t.Fatalf("second Load kept %q (%d records), first kept %q (%d)", keptAgain, len(again), kept, len(records))
		}
		for i := range again {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("second Load record %d is %q, first %q", i, again[i], records[i])
			}
		}

		a, err := OpenAppend(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Append(rec{K: "appended", N: len(records)}); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(records)+1 {
			t.Fatalf("append after resume: %d records, want %d", len(after), len(records)+1)
		}
	})
}
