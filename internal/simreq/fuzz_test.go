package simreq

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode checks Decode on arbitrary bodies: it never panics, it
// accepts only input that is exactly one JSON value, the canonical
// encoding of what it returns decodes back to the same request, and
// that request's Hash is stable.
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"PR-kron"}`,
		`{"benchmark":"pr-kron","scale":"quick","cores":4,"prefetcher":"nopf"}`,
		`{"version":1,"benchmark":"CC-road","scale":"full","cores":2,"prefetcher":"droplet","replacement":"drrip","replacement_l1":"srrip","replacement_l2":"ship","epoch_cycles":5000}`,
		`{"benchmark":"BFS-road","sampling":{"interval_epochs":64,"detail_epochs":2,"warmup_epochs":6,"warming":"none"}}`,
		`{"benchmark":"SSSP-orkut","variant":"no L2"}`,
		`{"benchmark":"PR-kron"}garbage`,
		`{"benchmark":"PR-kron"}]`,
		`{"benchmark":"PR-kron"} {"benchmark":"BFS-road","bogus":1}`,
		`{"benchmark":"PR-kron","prefetchr":"droplet"}`,
		`{"benchmark":"PR-nope","cores":-1}`,
		"  {\"benchmark\":\"BC-urand\"}\n",
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("Decode accepted %q, which is not exactly one JSON value", body)
		}
		canon, err := q.Canonical()
		if err != nil {
			t.Fatalf("decoded request %+v has no canonical form: %v", q, err)
		}
		back, err := Decode(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("canonical round trip changed the request:\n first %+v\nsecond %+v", q, back)
		}
		h1, err := q.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h3, _ := q.Hash(); h1 != h2 || h1 != h3 {
			t.Fatalf("Hash not stable: %s, %s after the round trip, %s again", h1, h2, h3)
		}
	})
}
