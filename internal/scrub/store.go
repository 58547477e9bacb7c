package scrub

import (
	"fmt"

	"vrldram/internal/dram"
	"vrldram/internal/ecc"
)

// PatrolResult is what one patrol read learned about a row.
type PatrolResult struct {
	Outcome ecc.DecodeResult
	Charge  float64 // sensed weakest-cell charge at the read
}

// RowStore is the storage a Scrubber patrols: something that can be read
// row by row through a SECDED-classified path and can retire a row whose
// data has been relocated to a spare. Both the charge-level dram.Bank and
// the bit-level dram.DataBank satisfy it (via BankStore / DataBankStore).
type RowStore interface {
	Rows() int
	// PatrolRead senses the row at time now through the ECC path and
	// restores it (a patrol read is an activation).
	PatrolRead(row int, now float64) (PatrolResult, error)
	// Retire marks the row as quarantined: its data lives on a spare now,
	// so the weak row must stop contributing integrity violations.
	Retire(row int) error
}

// BankStore adapts the charge-level dram.Bank: a patrol read senses the
// weakest cell, classifies the charge exactly as the SECDED decode of the
// row's word would resolve (ecc.ChargeClassifier is that mapping), and the
// activation restores the row.
type BankStore struct {
	bank *dram.Bank
	cls  ecc.ChargeClassifier
}

// NewBankStore wraps the bank with the given classifier.
func NewBankStore(b *dram.Bank, cls ecc.ChargeClassifier) (*BankStore, error) {
	if b == nil {
		return nil, fmt.Errorf("scrub: nil bank")
	}
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	return &BankStore{bank: b, cls: cls}, nil
}

// Rows implements RowStore.
func (s *BankStore) Rows() int { return s.bank.Geom.Rows }

// PatrolRead implements RowStore.
func (s *BankStore) PatrolRead(row int, now float64) (PatrolResult, error) {
	res, err := s.bank.Access(row, dram.Ticks(now))
	if err != nil {
		return PatrolResult{}, err
	}
	return PatrolResult{Outcome: s.cls.Classify(res.ChargeBefore), Charge: res.ChargeBefore}, nil
}

// Retire implements RowStore.
func (s *BankStore) Retire(row int) error { return s.bank.Retire(row) }

// DataBankStore adapts the bit-level dram.DataBank: patrol reads go through
// the stored codeword and the real (72,64) decode, so the outcome reflects
// actual bit flips, not just the charge classification.
type DataBankStore struct {
	db *dram.DataBank
}

// NewDataBankStore wraps the data bank.
func NewDataBankStore(db *dram.DataBank) (*DataBankStore, error) {
	if db == nil {
		return nil, fmt.Errorf("scrub: nil data bank")
	}
	return &DataBankStore{db: db}, nil
}

// Rows implements RowStore.
func (s *DataBankStore) Rows() int { return s.db.Geom.Rows }

// PatrolRead implements RowStore.
func (s *DataBankStore) PatrolRead(row int, now float64) (PatrolResult, error) {
	rr, err := s.db.ReadWord(row, now)
	if err != nil {
		return PatrolResult{}, err
	}
	return PatrolResult{Outcome: rr.Result, Charge: rr.Charge}, nil
}

// Retire implements RowStore.
func (s *DataBankStore) Retire(row int) error { return s.db.Retire(row) }
