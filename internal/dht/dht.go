// Package dht layers PRR-style object location (Plaxton, Rajaraman &
// Richa, SPAA 1997) on top of the hypercube routing fabric: the
// application the join protocol's neighbor tables exist to serve.
//
// Objects have IDs in the same space as nodes. Publishing an object walks
// the route from the storing node toward the object's root (the node the
// routing scheme converges to for that ID) and leaves a directory pointer
// at every hop; lookups walk the same route from the querying node and
// stop at the first pointer, which directs them to a nearby copy (the P2
// routing-locality property motivating the paper's introduction).
package dht

import (
	"fmt"
	"sort"
	"sync"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/table"
)

// Pointer is a directory entry: the object is stored at Holder.
type Pointer struct {
	Object id.ID
	Holder table.Ref
}

// Directory holds the per-node directory state (object pointers). It is
// kept outside the routing tables, as in PRR.
type Directory struct {
	mu       sync.Mutex
	pointers map[id.ID][]table.Ref // object -> holders, insertion order
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{pointers: make(map[id.ID][]table.Ref)}
}

// Add records that holder stores object; duplicates are ignored.
func (d *Directory) Add(object id.ID, holder table.Ref) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.pointers[object] {
		if h.ID == holder.ID {
			return
		}
	}
	d.pointers[object] = append(d.pointers[object], holder)
}

// Lookup returns the recorded holders of object.
func (d *Directory) Lookup(object id.ID) []table.Ref {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]table.Ref, len(d.pointers[object]))
	copy(out, d.pointers[object])
	return out
}

// Len returns the number of objects with at least one pointer.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pointers)
}

// Store is a distributed object-location service over a set of nodes
// reachable through a core.TableResolver (e.g. an overlay.Network).
type Store struct {
	params   id.Params
	resolver core.TableResolver

	mu   sync.Mutex
	dirs map[id.ID]*Directory
	// published is the authoritative (object, holder) list used by
	// Republish to repair directories after membership changes.
	published map[id.ID][]table.Ref
}

// NewStore creates a store over the given resolver.
func NewStore(p id.Params, resolver core.TableResolver) *Store {
	return &Store{
		params:    p,
		resolver:  resolver,
		dirs:      make(map[id.ID]*Directory),
		published: make(map[id.ID][]table.Ref),
	}
}

func (s *Store) dir(node id.ID) *Directory {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dirs[node]
	if !ok {
		d = NewDirectory()
		s.dirs[node] = d
	}
	return d
}

// ObjectID hashes an object name into the ID space.
func (s *Store) ObjectID(name string) id.ID {
	return id.FromName(s.params, name)
}

// Publish stores a pointer to holder at every node on the route from
// holder toward the object's root. It returns the directory path walked
// and an error if the route breaks (impossible in a consistent network).
func (s *Store) Publish(object id.ID, holder table.Ref) ([]id.ID, error) {
	path, err := s.rootPath(holder.ID, object)
	if err != nil {
		return nil, fmt.Errorf("dht: publish %v: %w", object, err)
	}
	for _, node := range path {
		s.dir(node).Add(object, holder)
	}
	s.mu.Lock()
	dup := false
	for _, h := range s.published[object] {
		if h.ID == holder.ID {
			dup = true
		}
	}
	if !dup {
		s.published[object] = append(s.published[object], holder)
	}
	s.mu.Unlock()
	return path, nil
}

// Republish re-walks the publish path of every (object, holder) pair.
// Node joins can move an object's root (a new node may match more suffix
// digits of the object ID), leaving the new root without a pointer; PRR
// and Tapestry repair this by republishing when membership changes. Call
// after a join wave completes.
func (s *Store) Republish() error {
	s.mu.Lock()
	type pair struct {
		object id.ID
		holder table.Ref
	}
	pairs := make([]pair, 0, len(s.published))
	for object, holders := range s.published {
		for _, h := range holders {
			pairs = append(pairs, pair{object: object, holder: h})
		}
	}
	s.mu.Unlock()
	for _, pr := range pairs {
		path, err := s.rootPath(pr.holder.ID, pr.object)
		if err != nil {
			return fmt.Errorf("dht: republish %v: %w", pr.object, err)
		}
		for _, node := range path {
			s.dir(node).Add(pr.object, pr.holder)
		}
	}
	return nil
}

// Lookup routes from the querying node toward the object's root and
// returns the first holder found together with the number of hops the
// query traveled. The earlier a pointer is found, the nearer the copy
// (property P2).
func (s *Store) Lookup(from id.ID, object id.ID) (holder table.Ref, hops int, err error) {
	path, err := s.rootPath(from, object)
	if err != nil {
		return table.Ref{}, 0, fmt.Errorf("dht: lookup %v: %w", object, err)
	}
	for hop, node := range path {
		if hs := s.dir(node).Lookup(object); len(hs) > 0 {
			return hs[0], hop, nil
		}
	}
	return table.Ref{}, 0, fmt.Errorf("dht: object %v not found from %v", object, from)
}

// rootPath returns the node sequence from start to the object's root
// using surrogate routing: when no node extends the suffix match with the
// object's next digit, the digit is substituted by the cyclically next
// digit that some node does carry. Because a consistent network globally
// agrees on which suffixes are inhabited (Definition 3.8), every start
// node resolves the same substitutions and therefore the same unique root
// — the final-hop resolution technique the paper's §2 attributes to the
// schemes extending plain hypercube routing.
func (s *Store) rootPath(start id.ID, object id.ID) ([]id.ID, error) {
	cur := start
	target := object
	path := []id.ID{cur}
	// Each iteration grows csuf(cur, target) by at least one, so d+1
	// iterations suffice.
	for iter := 0; iter <= s.params.D; iter++ {
		k := cur.CommonSuffixLen(target)
		if k == s.params.D {
			return path, nil // cur is the root
		}
		tbl, ok := s.resolver.TableOf(cur)
		if !ok {
			return nil, fmt.Errorf("no table for %v", cur)
		}
		var next table.Neighbor
		for off := 0; off < s.params.B; off++ {
			j := (target.Digit(k) + off) % s.params.B
			if e := tbl.Get(k, j); !e.IsZero() {
				if j != target.Digit(k) {
					target = target.WithDigit(k, j)
				}
				next = e
				break
			}
		}
		if next.IsZero() {
			// Unreachable in a consistent network: the diagonal entry
			// (k, cur[k]) always holds cur itself.
			return nil, fmt.Errorf("node %v has an empty level %d", cur, k)
		}
		if next.ID != cur {
			cur = next.ID
			path = append(path, cur)
		}
	}
	return nil, fmt.Errorf("route to root of %v did not converge", object)
}

// Root returns the object's root node: where a publish path from any
// consistent node terminates. In a consistent network every node agrees
// on it (deterministic location, property P1).
func (s *Store) Root(anyNode id.ID, object id.ID) (id.ID, error) {
	path, err := s.rootPath(anyNode, object)
	if err != nil {
		return id.Null, err
	}
	return path[len(path)-1], nil
}

// DirectoryLoad returns per-node pointer counts sorted descending — the
// load-balance view (property P3).
func (s *Store) DirectoryLoad() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.dirs))
	for _, d := range s.dirs {
		out = append(out, d.Len())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
