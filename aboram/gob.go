package aboram

import (
	"bytes"
	"encoding/gob"
	"io"
)

// Everything in aboram that speaks encoding/gob is in this file: the
// record payload codec of the checkpoint stream (delta.go).

func encodePayload(w io.Writer, v any) error { return gob.NewEncoder(w).Encode(v) }

func decodePayload(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}
