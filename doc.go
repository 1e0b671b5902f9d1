// Package hypercube is a reproduction of Liu & Lam, "Neighbor Table
// Construction and Update in a Dynamic Peer-to-Peer Network" (IEEE ICDCS
// 2003): the hypercube (suffix-matching) routing scheme of PRR/Pastry/
// Tapestry, the paper's join protocol with provable neighbor-table
// consistency under arbitrary concurrent joins, C-set trees, the
// communication-cost model, and the simulation experiments.
//
// The implementation lives under internal/ (see DESIGN.md for the map);
// runnable tools are under cmd/ — cmd/paper regenerates every table and
// figure of the paper's evaluation and every scenario of this
// repository's evaluation of the paper's §7 (EXPERIMENTS.md E1–E18).
// This file is the root package's only one: the package holds no code.
package hypercube
