package core

import (
	"encoding/binary"

	"bullion/internal/footer"
	"bullion/internal/merkle"
)

// MarshalFooterFile serializes a footer-only Bullion file: zero rows, no
// row groups, and a footer carrying only cols plus, optionally, one
// file-level statistics entry and bloom per column (stats and blooms may
// be nil). The dataset layer keeps its schema (SchemaFile) and each
// member's pruning statistics (StatsFile, derived from the member's own
// footer) in such files, so both decode through the footer view — O(1)
// open, hash-indexed name lookup — ParseFooter/ParseFooterBytes read them
// like any other file, and Footer.Excludes prunes with a statistics file
// exactly as with the footer it was derived from.
func MarshalFooterFile(cols []footer.Column, stats []footer.ColumnStat, blooms [][]byte) ([]byte, error) {
	ftr := &footer.Footer{
		NumColumns:     len(cols),
		Columns:        cols,
		ColumnStats:    stats,
		ColumnBlooms:   blooms,
		ChunkFirstPage: []uint32{0},
		Checksums:      checksumArray(merkle.FromHashes(nil)),
	}
	buf, err := ftr.Marshal()
	if err != nil {
		return nil, err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(buf)))
	copy(tail[4:], FileMagic)
	return append(buf, tail[:]...), nil
}

// SchemaFile renders s as a footer-only Bullion file of its column names
// and type descriptors. Opened, its File.Schema() equals s and its
// Footer().Fingerprint() equals s.Fingerprint().
func SchemaFile(s *Schema) ([]byte, error) {
	cols := make([]footer.Column, len(s.Fields))
	for i, f := range s.Fields {
		cols[i] = footer.Column{Name: f.Name, Type: fieldDesc(f)}
	}
	return MarshalFooterFile(cols, nil, nil)
}
