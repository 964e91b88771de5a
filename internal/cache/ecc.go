package cache

import "math/bits"

// SEC-DED (single-error-correct, double-error-detect) support for the L1
// data cache. The paper sets error correction aside ("Hamming codes would
// incur unnecessary complication on the design and energy consumption",
// Section 4); this extension implements it so the trade-off can be
// measured: ECC transparently repairs the single-bit faults that dominate
// the fault mix, at a substantially higher per-access energy overhead than
// parity.
//
// The implementation models the *behaviour* of a (39,32) Hamming code per
// data word rather than the bit matrices: a read compares the (possibly
// corrupted) word it sees against the as-encoded word, which is the stored
// word xor its error pattern. Zero differing bits pass; one differing bit
// is corrected on the fly; two differing bits are detected but
// uncorrectable and enter the k-strike recovery path, exactly like a
// parity hit; three or more differing bits alias into the code and are
// silently miscorrected — the residual vulnerability of SEC-DED.

// eccOutcome classifies a read under SEC-DED.
type eccOutcome int

const (
	eccClean eccOutcome = iota
	eccCorrected
	eccDetected
	eccMiscorrected
)

// classifyECC compares the read word against the encoded value and returns
// the value the decoder delivers together with the outcome class.
func classifyECC(read, encoded uint32) (uint32, eccOutcome) {
	diff := read ^ encoded
	switch bits.OnesCount32(diff) {
	case 0:
		return read, eccClean
	case 1:
		return encoded, eccCorrected
	case 2:
		return read, eccDetected
	default:
		// Three or more flipped bits alias to a valid-looking single-bit
		// syndrome: the decoder "corrects" the wrong bit and hands back a
		// value that differs from both the read and the encoded word.
		return read ^ 1<<(diff&31), eccMiscorrected
	}
}
