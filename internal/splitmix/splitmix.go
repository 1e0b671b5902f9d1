// Package splitmix is the splitmix64 generator (Steele, Lea and Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014): the
// one seeded stream for the layers that cannot share a math/rand
// source. Each caller derives its own seed — sampling per (seed, node),
// trace IDs per (seed, node), the nemesis schedule per (seed, step) and
// the oracle's audit per (seed, step) — so reruns replay bit for bit
// and one stream's draws never shift another's.
package splitmix

// Stream is a splitmix64 stream. The zero value is the stream seeded 0.
type Stream struct{ state uint64 }

// New returns the stream seeded with seed.
func New(seed uint64) Stream { return Stream{state: seed} }

// Next advances the stream and returns its next output.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns Next() mod n, in [0, n), or 0 when n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Next() % uint64(n))
}
