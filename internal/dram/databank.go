package dram

import (
	"fmt"

	"vrldram/internal/ecc"
	"vrldram/internal/retention"
)

// DataBank is a Bank that also stores actual data: one 64-bit word per row,
// SECDED-protected, with the weakest cell mapped to a data bit. It closes
// the loop between the charge-level model and bit-level integrity: when a
// row is sensed with its weakest cell below the limit, the stored word reads
// back with that bit flipped, and the (72,64) code either corrects or
// detects it - the machinery AVATAR-style online mitigation keys off.
//
// One word per row is deliberately minimal: every row already tracks only
// its weakest cell, so a wider data array would add storage without adding
// modeled behaviour.
type DataBank struct {
	*Bank
	words      []ecc.Codeword
	classifier ecc.ChargeClassifier

	// weakBit[r] is the data bit position the row's weakest cell holds.
	weakBit []int
}

// NewDataBank wraps a bank with data storage; words start at zero.
func NewDataBank(profile *retention.BankProfile, decay retention.DecayModel, pattern retention.Pattern) (*DataBank, error) {
	b, err := NewBank(profile, decay, pattern)
	if err != nil {
		return nil, err
	}
	db := &DataBank{
		Bank:       b,
		words:      make([]ecc.Codeword, b.Geom.Rows),
		classifier: ecc.DefaultClassifier(),
		weakBit:    make([]int, b.Geom.Rows),
	}
	for r := range db.weakBit {
		// Deterministic pseudo-random bit position per row.
		db.weakBit[r] = int(uint32(r)*2654435761>>16) % ecc.DataBits
		db.words[r] = ecc.Encode(0)
	}
	return db, nil
}

// WriteWord stores data in the row at time t (an activation: fully restores
// charge).
func (db *DataBank) WriteWord(row int, t float64, data uint64) error {
	if row < 0 || row >= db.Geom.Rows {
		return fmt.Errorf("dram: row %d out of range", row)
	}
	if _, _, err := db.Bank.Access(row, Ticks(t), 0); err != nil {
		return err
	}
	db.words[row] = ecc.Encode(data)
	return nil
}

// ReadResult is the outcome of a data read.
type ReadResult struct {
	Data   uint64
	Result ecc.DecodeResult
	Charge float64 // sensed weakest-cell charge
}

// ReadWord senses and reads the row at time t. If the weakest cell has
// sagged into the correctable window, the raw word comes back with the weak
// bit flipped and ECC repairs it; deeper sag is uncorrectable and the
// returned data is unreliable. Reading activates the row (restoring charge
// and, if the read was still correct or correctable, rewriting the word
// intact).
func (db *DataBank) ReadWord(row int, t float64) (ReadResult, error) {
	if row < 0 || row >= db.Geom.Rows {
		return ReadResult{}, fmt.Errorf("dram: row %d out of range", row)
	}
	charge, err := db.Bank.ChargeAt(row, Ticks(t))
	if err != nil {
		return ReadResult{}, err
	}
	raw := db.words[row]
	outcome := db.classifier.Classify(charge)
	switch outcome {
	case ecc.Corrected:
		raw = raw.FlipDataBit(db.weakBit[row])
	case ecc.Uncorrectable:
		// The weak bit and at least one neighbour have flipped.
		raw = raw.FlipDataBit(db.weakBit[row])
		raw = raw.FlipDataBit((db.weakBit[row] + 1) % ecc.DataBits)
	}
	data, decode := ecc.Decode(raw)

	// The activation restores the row; a successful (or corrected) read
	// scrubs the stored word back to its clean encoding.
	if _, _, err := db.Bank.Access(row, Ticks(t), 0); err != nil {
		return ReadResult{}, err
	}
	if decode != ecc.Uncorrectable {
		db.words[row] = ecc.Encode(data)
	} else {
		db.words[row] = raw
	}
	return ReadResult{Data: data, Result: decode, Charge: charge}, nil
}
