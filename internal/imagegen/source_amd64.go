//go:build amd64

package imagegen

import "repro/internal/vec"

// seedBlocksAVX2 (source_amd64.s) sets register words 0 … 4·blocks−1
// from the seed x0 as seedWords does, four words per pass: one
// VPMULUDQ per state and lane, the Mersenne reduction on the packed
// products, then the shifts, XORs and rngCooked. pow is seedPow.
func seedBlocksAVX2(reg *int64, pow *uint64, cooked *int64, x0 uint64, blocks int)

// seedPow lays lehmerPow out for seedBlocksAVX2: block b holds the
// first, second and third chain states of words 4b … 4b+3, one row of
// four lanes each.
var seedPow = func() (t [rngLen / 4][3][4]uint64) {
	for b := range t {
		for k := range t[b] {
			for l := range t[b][k] {
				t[b][k][l] = lehmerPow[21+3*(4*b+l)+k]
			}
		}
	}
	return t
}()

// seedAVX2 fills reg from its seed x0: the packed kernel for the whole
// blocks of four words, seedWords for the rest.
func seedAVX2(reg *[rngLen]int64, x0 uint64) {
	const blocks = rngLen / 4
	seedBlocksAVX2(&reg[0], &seedPow[0][0][0], &rngCooked[0], x0, blocks)
	seedWords(reg, x0, 4*blocks)
}

func init() {
	if vec.HasAVX2() {
		seedSel = seedAVX2
	}
}
