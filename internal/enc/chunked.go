package enc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
)

// ChunkSize is the raw-byte chunk granularity for the Chunked scheme,
// matching the paper's 256 KB (Table 2). Each chunk compresses
// independently so partial reads stay cheap.
const ChunkSize = 256 << 10

// appendFlateChunks compresses raw in ChunkSize chunks with DEFLATE (the
// stdlib substitute for zstd: go.mod stays dependency-free) and appends:
//
//	nChunks(uvarint) { compressedLen(uvarint) compressedBytes }*
func appendFlateChunks(dst, raw []byte) ([]byte, error) {
	nChunks := (len(raw) + ChunkSize - 1) / ChunkSize
	dst = binary.AppendUvarint(dst, uint64(nChunks))
	var buf bytes.Buffer
	for c := 0; c < nChunks; c++ {
		lo := c * ChunkSize
		hi := lo + ChunkSize
		if hi > len(raw) {
			hi = len(raw)
		}
		buf.Reset()
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(raw[lo:hi]); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		dst = append(dst, buf.Bytes()...)
	}
	return dst, nil
}

// readFlateChunks decompresses a chunk sequence, verifying the total
// decompressed size equals want.
func readFlateChunks(src []byte, want int) ([]byte, error) {
	nChunks, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("chunked: bad chunk count")
	}
	src = src[sz:]
	out := make([]byte, 0, want)
	for c := uint64(0); c < nChunks; c++ {
		clen, sz := binary.Uvarint(src)
		if sz <= 0 || clen > uint64(len(src)-sz) {
			return nil, corruptf("chunked: bad chunk %d length", c)
		}
		src = src[sz:]
		fr := flate.NewReader(bytes.NewReader(src[:clen]))
		dec, err := io.ReadAll(fr)
		if err != nil {
			return nil, corruptf("chunked: chunk %d: %v", c, err)
		}
		if err := fr.Close(); err != nil {
			return nil, corruptf("chunked: chunk %d close: %v", c, err)
		}
		out = append(out, dec...)
		src = src[clen:]
	}
	if len(out) != want {
		return nil, corruptf("chunked: decompressed %d bytes, want %d", len(out), want)
	}
	return out, nil
}
