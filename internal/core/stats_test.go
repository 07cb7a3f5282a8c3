package core

import (
	"math/rand"
	"testing"

	"bullion/internal/enc"
)

func TestFileStats(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(81))
	batch := testBatch(t, schema, rng, 1000)
	opts := DefaultOptions()
	opts.RowsPerPage = 256
	opts.GroupRows = 500
	mf, f := writeTestFile(t, schema, batch, opts)

	s := f.Stats()
	if s.FileBytes != mf.Size() {
		t.Fatalf("FileBytes = %d, want %d", s.FileBytes, mf.Size())
	}
	if s.NumRows != 1000 || s.LiveRows != 1000 {
		t.Fatalf("rows = %d/%d", s.NumRows, s.LiveRows)
	}
	if s.NumGroups != 2 {
		t.Fatalf("groups = %d", s.NumGroups)
	}
	if len(s.Columns) != len(schema.Fields) {
		t.Fatalf("columns = %d", len(s.Columns))
	}
	var sum uint64
	for _, c := range s.Columns {
		if c.CompressedBytes == 0 {
			t.Fatalf("column %s reports zero bytes", c.Name)
		}
		if c.Pages != 4 { // 2 groups x ceil(500/256) = 2x2 pages
			t.Fatalf("column %s pages = %d, want 4", c.Name, c.Pages)
		}
		total := 0
		for _, n := range c.Encodings {
			total += n
		}
		if total != c.Pages {
			t.Fatalf("column %s encoding histogram covers %d of %d pages", c.Name, total, c.Pages)
		}
		sum += c.CompressedBytes
	}
	if sum != s.DataBytes {
		t.Fatalf("DataBytes %d != column sum %d", s.DataBytes, sum)
	}
	// Data + footer + trailer = file.
	if int64(s.DataBytes)+int64(s.FooterBytes)+8 != s.FileBytes {
		t.Fatalf("accounting: data %d + footer %d + 8 != file %d",
			s.DataBytes, s.FooterBytes, s.FileBytes)
	}

	// The sparse column's stats reflect the sparse flag.
	found := false
	for _, c := range s.Columns {
		if c.Name == "clk_seq_cids" {
			found = true
			if !c.Sparse {
				t.Fatal("sparse flag lost in stats")
			}
		}
	}
	if !found {
		t.Fatal("clk_seq_cids missing from stats")
	}

	pages := 0
	for _, c := range s.Columns {
		for _, n := range c.Encodings {
			pages += n
		}
	}
	if pages != s.NumPages {
		t.Fatalf("per-column encodings cover %d of %d pages", pages, s.NumPages)
	}
}

func TestStatsAfterDeletion(t *testing.T) {
	mf, f, _ := writeLevel(t, Level2, 1000)
	if err := f.DeleteRows(mf, []uint64{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.LiveRows != 996 {
		t.Fatalf("live = %d", s.LiveRows)
	}
	if s.Compliance != Level2 {
		t.Fatalf("compliance = %d", s.Compliance)
	}
}

func TestStatsEncodingIDsAreNamed(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(82))
	batch := testBatch(t, schema, rng, 300)
	_, f := writeTestFile(t, schema, batch, nil)
	for _, c := range f.Stats().Columns {
		for id := range c.Encodings {
			if id == 0 {
				continue // empty-page marker
			}
			if name := enc.SchemeID(id).String(); len(name) > 7 && name[:7] == "scheme(" {
				t.Fatalf("%s: page recorded unnamed scheme id %d", c.Name, id)
			}
		}
	}
}
