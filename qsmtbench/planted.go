package main

import (
	"fmt"
	"math/rand"

	"qsmt"
	"qsmt/internal/qubo"
)

// planted is a QUBO with a planted ground state, built from frustrated
// loops (Hen et al.'s planted-solution construction): every loop's
// couplings are satisfied by the planted spins except one edge, so each
// loop reaches its minimum −(L−2) there and the planted state — which
// minimizes every loop at once — is a ground state of the sum. The
// ground energy is therefore known without solving. Each block of
// variables is one connected component (a Hamiltonian loop through the
// block plus short chord loops), so a QUBO of several blocks decomposes
// into that many shards before presolve.
//
// planted implements qsmt.Constraint: a witness is the assignment as a
// '0'/'1' string, and Check accepts exactly the planted energy.
type planted struct {
	n      int
	pairs  map[[2]int]int // Ising couplings J_ij (i < j), integer
	ground int            // planted (ground) Ising energy
	spins  []int8         // the planted state, ±1
	blocks []int          // block sizes, for reports
}

// plantedMinBlock and plantedMaxBlock bound the variables of one block.
const (
	plantedMinBlock = 8
	plantedMaxBlock = 40
)

// newPlanted draws a QUBO of 2–4 blocks of 8–40 variables from rng.
func newPlanted(rng *rand.Rand) *planted {
	p := &planted{pairs: map[[2]int]int{}}
	for b := 2 + rng.Intn(3); b > 0; b-- {
		m := plantedMinBlock + rng.Intn(plantedMaxBlock-plantedMinBlock+1)
		p.addBlock(rng, m)
	}
	return p
}

// addBlock appends a block of m variables: a frustrated Hamiltonian
// loop through all of them plus m/4 frustrated chord loops of length
// 4–6.
func (p *planted) addBlock(rng *rand.Rand, m int) {
	base := p.n
	p.n += m
	p.blocks = append(p.blocks, m)
	for i := 0; i < m; i++ {
		p.spins = append(p.spins, int8(1-2*rng.Intn(2)))
	}
	perm := rng.Perm(m)
	for i := range perm {
		perm[i] += base
	}
	p.addLoop(rng, perm)
	for k := 0; k < m/4; k++ {
		l := 4 + rng.Intn(3)
		loop := rng.Perm(m)[:l]
		for i := range loop {
			loop[i] += base
		}
		p.addLoop(rng, loop)
	}
}

// addLoop adds one frustrated loop over vars: every edge agrees with the
// planted spins except one chosen at random.
func (p *planted) addLoop(rng *rand.Rand, vars []int) {
	bad := rng.Intn(len(vars))
	for k := range vars {
		i, j := vars[k], vars[(k+1)%len(vars)]
		sign := -1 // satisfied: J·s_i·s_j = −1
		if k == bad {
			sign = 1
		}
		key := [2]int{min(i, j), max(i, j)}
		p.pairs[key] += sign * int(p.spins[i]) * int(p.spins[j])
	}
	p.ground += 2 - len(vars)
}

// energy is the Ising energy of the assignment x (bit 1 = spin +1).
func (p *planted) energy(x string) int {
	e := 0
	for k, j := range p.pairs {
		e += j * spin(x[k[0]]) * spin(x[k[1]])
	}
	return e
}

func spin(b byte) int {
	if b == '1' {
		return 1
	}
	return -1
}

// verify is the benchmark's reference check of a witness.
func (p *planted) verify(w qsmt.Witness) error {
	if w.Kind != qsmt.WitnessString || len(w.Str) != p.n {
		return wrong("planted %v: malformed witness", p.blocks)
	}
	for i := 0; i < p.n; i++ {
		if w.Str[i] != '0' && w.Str[i] != '1' {
			return wrong("planted %v: malformed witness", p.blocks)
		}
	}
	if e := p.energy(w.Str); e != p.ground {
		return wrong("planted %v: witness energy %d, ground %d", p.blocks, e, p.ground)
	}
	return nil
}

func (p *planted) Name() string { return "planted" }

func (p *planted) NumVars() int { return p.n }

// BuildModel writes the Ising couplings in QUBO form: with s = 2x − 1,
// J·s_i·s_j = 4J·x_i·x_j − 2J·x_i − 2J·x_j + J, so QUBO and Ising
// energies agree exactly.
func (p *planted) BuildModel() (*qubo.Model, error) {
	m := qubo.New(p.n)
	for k, j := range p.pairs {
		if j == 0 {
			continue
		}
		w := float64(j)
		m.AddQuadratic(k[0], k[1], 4*w)
		m.AddLinear(k[0], -2*w)
		m.AddLinear(k[1], -2*w)
		m.AddOffset(w)
	}
	return m, nil
}

func (p *planted) Decode(x []qubo.Bit) (qsmt.Witness, error) {
	if len(x) != p.n {
		return qsmt.Witness{}, fmt.Errorf("planted: assignment of %d bits, want %d", len(x), p.n)
	}
	b := make([]byte, p.n)
	for i, v := range x {
		b[i] = '0' + byte(v&1)
	}
	return qsmt.Witness{Kind: qsmt.WitnessString, Str: string(b)}, nil
}

func (p *planted) Check(w qsmt.Witness) error { return p.verify(w) }
