package rs

import (
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenMessages returns the three fixed k-symbol messages the golden
// codewords encode: ascending, descending by 7, and a seeded random one.
func goldenMessages(k int) [][]byte {
	up, down, rnd := make([]byte, k), make([]byte, k), make([]byte, k)
	for i := range up {
		up[i] = byte(i + 1)
		down[i] = byte(0xff - 7*i)
	}
	rand.New(rand.NewSource(int64(k))).Read(rnd)
	return [][]byte{up, down, rnd}
}

// TestGoldenCodewords pins the exact codewords of every code the schemes
// build: the BCH view as DUO (RS(18,16)) and DUORank (RS(81,64)) use it,
// and the evaluation view as PAIR uses it — the DDR4 x16 base RS(18,16),
// its expansion to RS(20,16), and the DDR5 x16 RS(34,32) expanded to
// RS(36,32). DUO's miscorrection statistics and every stored image
// depend on these bytes, so a codec change must leave them untouched.
func TestGoldenCodewords(t *testing.T) {
	e18, err := NewEvaluation(18, 16)
	if err != nil {
		t.Fatal(err)
	}
	e20, err := e18.Expand(2)
	if err != nil {
		t.Fatal(err)
	}
	e34, err := NewEvaluation(34, 32)
	if err != nil {
		t.Fatal(err)
	}
	e36, err := e34.Expand(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		k      int
		encode func([]byte) []byte
		want   []string
	}{
		{"bch/RS(18,16)", 16, MustNew(18, 16).Encode, []string{
			"0102030405060708090a0b0c0d0e0f109383",
			"fff8f1eae3dcd5cec7c0b9b2aba49d966151",
			"a48a8032dc75ac309512765baac0448362cc",
		}},
		{"bch/RS(81,64)", 64, MustNew(81, 64).Encode, []string{
			"0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f405bce946aacd1b1bcbab0254bb8b930b5bb",
			"fff8f1eae3dcd5cec7c0b9b2aba49d968f88817a736c655e575049423b342d261f18110a03fcf5eee7e0d9d2cbc4bdb6afa8a19a938c857e777069625b544d469ef22a8fd9cb6add84533a61db1d7bd64b",
			"9c6157823798aa4c1b70a964ce916045f3641999c9389fc5062c01cadabb9e0b2b7f5ff05d11fd9e9a0a60393b0b5015f5891b426a56b9903a19699af8ac6e0d9871d23ea8388a681b52f1ab65d6a52ef7",
		}},
		{"evaluation/RS(18,16)", 16, e18.Encode, []string{
			"0102030405060708090a0b0c0d0e0f10a483",
			"fff8f1eae3dcd5cec7c0b9b2aba49d96d3e2",
			"a48a8032dc75ac309512765baac044832e62",
		}},
		{"evaluation/RS(20,16)", 16, e20.Encode, []string{
			"0102030405060708090a0b0c0d0e0f10a4835de9",
			"fff8f1eae3dcd5cec7c0b9b2aba49d96d3e27a81",
			"a48a8032dc75ac309512765baac044832e6267f7",
		}},
		{"evaluation/RS(36,32)", 32, e36.Encode, []string{
			"0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f208cb22880",
			"fff8f1eae3dcd5cec7c0b9b2aba49d968f88817a736c655e575049423b342d26175c3871",
			"cc8c67ad62d4b3b1ee3002a37a51035facef6523ed27cf7d2735ba00f850670a16581104",
		}},
	}
	for _, tc := range cases {
		for i, msg := range goldenMessages(tc.k) {
			if got := hex.EncodeToString(tc.encode(msg)); got != tc.want[i] {
				t.Errorf("%s message %d:\n got %s\nwant %s", tc.name, i, got, tc.want[i])
			}
		}
	}
}
