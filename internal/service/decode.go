package service

// Incoming solve-plane requests are decoded strictly: a field the request
// type does not declare is a 400 that names it, so a stale or misspelled
// field cannot silently fall back to a default (a "solver":"approx" from a
// client of the retired alias would otherwise run an Optimal solve). Stored
// payloads, relayed owner responses and the client stay lenient. Stream
// queries are decoded by api.DecodeQuery, which rejects an unknown parameter
// the same way.

import (
	"encoding/json"
	"io"
)

// decodeStrict decodes one JSON value from r into dst, rejecting unknown
// fields at any depth.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
