// Package syndrome computes the syndrome of a stored word under a linear
// code with one table lookup per stored byte.
//
// Every code in the study is linear over GF(2) bit by bit, a Reed-Solomon
// code over GF(2^8) included: its syndrome map is a binary parity-check
// matrix whose column for stored bit j is the syndrome of a word with
// only bit j set (BEER's view of on-die ECC). A Table holds, for each
// stored byte i and value v, the XOR of the columns of the bits set in v,
// so a word's syndrome is one table-row XOR per byte, whatever the code
// or the scheme's bit layout. A syndrome is packed into one 64-bit word,
// Reed-Solomon syndrome i in byte i, so a code has at most WordBytes
// syndrome bytes.
package syndrome

import (
	"fmt"
	"sync"
)

// WordBytes is the most syndrome bytes a packed syndrome word holds.
const WordBytes = 8

// Table maps a word's stored bytes to its packed syndrome. The rows are
// built on the first Syndrome call, so constructing a scheme that never
// decodes costs no table. A Table is safe for concurrent use.
type Table struct {
	n    int
	col  func(bit int) uint64
	once sync.Once
	rows [][256]uint64 // rows[i][v]: syndrome of byte i holding v, zero elsewhere
}

// New returns the table of a code over n stored bytes whose stored bit j
// (bit j%8 of byte j/8, LSB-first) alone has the syndrome col(j). col is
// called once per stored bit, when the table is first used.
func New(n int, col func(bit int) uint64) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("syndrome: table over %d stored bytes", n))
	}
	return &Table{n: n, col: col}
}

// build fills each row by extending the entries of the lower bits of a
// byte with the column of the next one.
func (t *Table) build() {
	t.rows = make([][256]uint64, t.n)
	for i := range t.rows {
		row := &t.rows[i]
		for b := 0; b < 8; b++ {
			c := t.col(8*i + b)
			for v := 1 << b; v < 2<<b; v++ {
				row[v] = row[v^1<<b] ^ c
			}
		}
	}
	t.col = nil
}

// Syndrome returns the packed syndrome of the stored bytes b, which must
// be exactly the table's n bytes: the XOR of one row entry per byte. It
// allocates nothing once the table is built.
func (t *Table) Syndrome(b []byte) uint64 {
	if len(b) != t.n {
		panic(fmt.Sprintf("syndrome: %d stored bytes, want %d", len(b), t.n))
	}
	t.once.Do(t.build)
	rows := t.rows[:len(b)]
	var s uint64
	for i, v := range b {
		s ^= rows[i][v]
	}
	return s
}
