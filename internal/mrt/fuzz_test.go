package mrt

import (
	"testing"
	"time"

	"mlpeering/internal/bgp"
)

// FuzzUnmarshalRIBRecord feeds arbitrary RIB_IPVx_UNICAST bodies to the
// decoder. Malformed input must come back as an error, never a panic,
// and the arena and heap decoders must agree on every body. Crashers
// found here are checked in under testdata/fuzz/FuzzUnmarshalRIBRecord.
func FuzzUnmarshalRIBRecord(f *testing.F) {
	for _, r := range []*RIBRecord{
		{Prefix: bgp.MustPrefix("10.0.0.0/8"), Entries: []RIBEntry{{Attrs: sampleAttrs(1)}}},
		{
			Sequence: 42,
			Prefix:   bgp.MustPrefix("193.0.0.0/21"),
			Entries: []RIBEntry{
				{PeerIndex: 0, Originated: time.Unix(1368000000, 0).UTC(), Attrs: sampleAttrs(11666, 3356, 6695)},
				{PeerIndex: 1, Originated: time.Unix(1368000500, 0).UTC(), Attrs: sampleAttrs(196615, 8359)},
			},
		},
		{Sequence: 7, Prefix: bgp.MustPrefix("2001:db8::/32"), Entries: []RIBEntry{{PeerIndex: 1, Attrs: sampleAttrs(196615)}}},
		{Prefix: bgp.MustPrefix("0.0.0.0/0")},
	} {
		body, err := MarshalRIBRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, r.Prefix.Addr().Is6())
	}
	f.Fuzz(func(t *testing.T, body []byte, v6 bool) {
		heap, herr := UnmarshalRIBRecord(body, v6)
		arena, aerr := UnmarshalRIBRecordArena(body, v6, &DumpArena{})
		if (herr == nil) != (aerr == nil) {
			t.Fatalf("heap decode err %v, arena decode err %v", herr, aerr)
		}
		if herr != nil {
			return
		}
		if heap.Sequence != arena.Sequence || heap.Prefix != arena.Prefix || len(heap.Entries) != len(arena.Entries) {
			t.Fatalf("heap decode %+v, arena decode %+v", heap, arena)
		}
	})
}
