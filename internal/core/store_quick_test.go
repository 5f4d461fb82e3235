package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// A second, structurally richer property-test domain: a document store
// with maps, slices, strings, and cross-references between documents —
// the "multiple indexing" data shapes the paper motivates (Section 4.3).
// The invariant is the same: remote mutation under copy-restore must be
// indistinguishable from local mutation.

type document struct {
	Title string
	Words []string
	Links []*document
}

type store struct {
	Docs   map[string]*document
	Recent []*document
	Pinned *document
}

func storeOptions(t *testing.T) Options {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{
		"q.document": document{},
		"q.store":    store{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return Options{Registry: reg}
}

// genStore builds a pseudo-random store. Same seed, same shape.
func genStore(seed int64, nDocs int) *store {
	r := newRng(seed)
	s := &store{Docs: make(map[string]*document)}
	docs := make([]*document, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		d := &document{
			Title: fmt.Sprintf("doc-%d", i),
			Words: []string{fmt.Sprintf("w%d", r.next(10)), "common"},
		}
		s.Docs[d.Title] = d
		docs = append(docs, d)
	}
	// Cross-links and indexes create the aliasing that matters.
	for i, d := range docs {
		if i > 0 && r.next(2) == 0 {
			d.Links = append(d.Links, docs[r.next(i)])
		}
	}
	for i := 0; i < nDocs/2; i++ {
		s.Recent = append(s.Recent, docs[r.next(len(docs))])
	}
	if len(docs) > 0 {
		s.Pinned = docs[r.next(len(docs))]
	}
	return s
}

// mutateStore applies a deterministic mutation script. It navigates only
// by structure (sorted titles), so it replays identically on isomorphic
// stores.
func mutateStore(s *store, seed int64, ops int) {
	r := newRng(seed ^ 0xD0C5)
	titles := sortedTitles(s)
	for i := 0; i < ops; i++ {
		if len(titles) == 0 {
			return
		}
		d := s.Docs[titles[r.next(len(titles))]]
		switch r.next(6) {
		case 0:
			d.Title = d.Title + "+"
			// Note: the index key is now stale, like real code that
			// forgets to reindex; the graphs must still match.
		case 1:
			if len(d.Words) > 0 {
				d.Words[r.next(len(d.Words))] = fmt.Sprintf("edited%d", r.next(100))
			}
		case 2:
			other := s.Docs[titles[r.next(len(titles))]]
			d.Links = append([]*document{other}, d.Links...)
		case 3:
			nd := &document{Title: fmt.Sprintf("new-%d", r.next(1000)), Words: []string{"fresh"}}
			s.Docs[nd.Title] = nd
			// Do NOT add nd's title to titles: replays stay aligned.
		case 4:
			s.Recent = append([]*document{d}, s.Recent...)
			if len(s.Recent) > 6 {
				s.Recent = s.Recent[:6]
			}
		case 5:
			s.Pinned = d
		}
	}
}

func sortedTitles(s *store) []string {
	titles := make([]string, 0, len(s.Docs))
	for k := range s.Docs {
		titles = append(titles, k)
	}
	// Insertion sort: tiny N, no extra imports.
	for i := 1; i < len(titles); i++ {
		for j := i; j > 0 && titles[j] < titles[j-1]; j-- {
			titles[j], titles[j-1] = titles[j-1], titles[j]
		}
	}
	return titles
}

// TestQuickStoreRemoteEqualsLocal applies the full reply of a server
// without change detection; TestQuickStoreRemoteEqualsLocalDelta this
// server's own.
func TestQuickStoreRemoteEqualsLocal(t *testing.T) {
	opts := storeOptions(t)
	f := func(seed int64, nRaw, opsRaw uint8) bool {
		nDocs := int(nRaw%12) + 1
		ops := int(opsRaw%10) + 1

		local := genStore(seed, nDocs)
		mutateStore(local, seed, ops)

		remote := genStore(seed, nDocs)
		var req bytes.Buffer
		call := NewCall(&req, opts)
		if err := call.EncodeRestorable(remote); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := call.Finish(); err != nil {
			return false
		}
		srv := AcceptCallBytes(req.Bytes(), opts)
		defer srv.Release()
		sroot, err := srv.DecodeRestorable()
		if err != nil {
			t.Logf("seed %d decode: %v", seed, err)
			return false
		}
		prepareReply(t, srv, true)
		mutateStore(sroot.(*store), seed, ops)
		var respBuf bytes.Buffer
		if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
			t.Logf("seed %d respond: %v", seed, err)
			return false
		}
		if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
			t.Logf("seed %d apply: %v", seed, err)
			return false
		}
		eq, err := graph.Equal(graph.AccessExported, remote, local)
		if err != nil {
			t.Logf("seed %d equal: %v", seed, err)
			return false
		}
		if !eq {
			t.Logf("seed %d: store diverged", seed)
		}
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStoreRemoteEqualsLocalDelta(t *testing.T) {
	opts := storeOptions(t)
	f := func(seed int64, nRaw, opsRaw uint8) bool {
		nDocs := int(nRaw%10) + 1
		ops := int(opsRaw % 8)

		local := genStore(seed, nDocs)
		mutateStore(local, seed, ops)
		remote := genStore(seed, nDocs)

		var req bytes.Buffer
		call := NewCall(&req, opts)
		if err := call.EncodeRestorable(remote); err != nil {
			return false
		}
		if err := call.Finish(); err != nil {
			return false
		}
		srv := AcceptCallBytes(req.Bytes(), opts)
		defer srv.Release()
		sroot, err := srv.DecodeRestorable()
		if err != nil {
			return false
		}
		if err := srv.Prepare(); err != nil {
			return false
		}
		mutateStore(sroot.(*store), seed, ops)
		var respBuf bytes.Buffer
		if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
			return false
		}
		if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
			return false
		}
		eq, err := graph.Equal(graph.AccessExported, remote, local)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
