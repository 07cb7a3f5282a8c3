package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bullion"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed (the commands print with fmt.Printf).
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// libraryView reads path through the library: its live row count and the
// lines `project` should print for cols (the first rows of a scan).
func libraryView(t *testing.T, path string, cols []string) (live int64, firstRows string) {
	t.Helper()
	f, err := bullion.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := f.Scan(bullion.ScanOptions{Columns: cols, BatchRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var sb strings.Builder
	for rows := 0; rows < 10; {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch.NumRows() && rows < 10; r, rows = r+1, rows+1 {
			for c, col := range batch.Columns {
				fmt.Fprintf(&sb, "%s=%v ", cols[c], cellString(col, r))
			}
			sb.WriteByte('\n')
		}
	}
	return int64(f.NumLiveRows()), sb.String()
}

// TestFileLifecycle drives demo → project → scan → delete → scan on one
// file and checks every step against the library's own view of it.
func TestFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ads.bln")
	cols := []string{"uid", "ctr", "clk_seq_cids"}
	// Rows 0-24 take out the first user (20 rows) and the head of the
	// second, so the first rows `project` prints change.
	var gone []string
	for r := 0; r < 25; r++ {
		gone = append(gone, fmt.Sprint(r))
	}

	scanRows := func(t *testing.T, out string) int64 {
		var doc scanJSON
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("scan -json output: %v\n%s", err, out)
		}
		return doc.Rows
	}
	for _, step := range []struct {
		name     string
		run      func() error
		wantLive int64
		check    func(t *testing.T, out, firstRows string)
	}{
		{"demo", func() error { return demo(path) }, 10000, nil},
		{"project", func() error { return project(path, cols) }, 10000,
			func(t *testing.T, out, firstRows string) {
				if out != firstRows {
					t.Errorf("project printed\n%s\nscan's first rows are\n%s", out, firstRows)
				}
			}},
		{"scan", func() error { return scan([]string{"-json", "-batch", "1000", path}) }, 10000,
			func(t *testing.T, out, _ string) {
				if got := scanRows(t, out); got != 10000 {
					t.Errorf("scan emitted %d rows, want 10000", got)
				}
			}},
		{"delete", func() error { return deleteRows(path, gone) }, 9975,
			func(t *testing.T, out, _ string) {
				if !strings.Contains(out, "9975 live rows remain") {
					t.Errorf("delete printed %q", out)
				}
			}},
		{"scan after delete", func() error { return scan([]string{"-json", path, "uid"}) }, 9975,
			func(t *testing.T, out, _ string) {
				if got := scanRows(t, out); got != 9975 {
					t.Errorf("scan emitted %d rows, want 9975", got)
				}
			}},
		{"project after delete", func() error { return project(path, cols) }, 9975,
			func(t *testing.T, out, firstRows string) {
				if out != firstRows || !strings.HasPrefix(out, "uid=1 ") {
					t.Errorf("project printed\n%s\nscan's first rows are\n%s", out, firstRows)
				}
			}},
	} {
		t.Run(step.name, func(t *testing.T) {
			out := captureStdout(t, step.run)
			live, firstRows := libraryView(t, path, cols)
			if live != step.wantLive {
				t.Fatalf("%d live rows, want %d", live, step.wantLive)
			}
			if step.check != nil {
				step.check(t, out, firstRows)
			}
		})
	}
}
