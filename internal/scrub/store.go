package scrub

import (
	"fmt"

	"vrldram/internal/dram"
	"vrldram/internal/ecc"
)

// RowStore is the storage a Scrubber patrols: something that can be read
// row by row through a SECDED-classified path and can retire a row whose
// data has been relocated to a spare. The charge-level dram.Bank satisfies
// it via BankStore.
type RowStore interface {
	Rows() int
	// PatrolRead senses the row at time now through the ECC path, restores
	// it (a patrol read is an activation) and returns the decode outcome.
	PatrolRead(row int, now float64) (ecc.DecodeResult, error)
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

// PatrolRead implements RowStore. A charge at or above the classifier's
// sensing limit decodes OK, so only a read below it is classified.
func (s *BankStore) PatrolRead(row int, now float64) (ecc.DecodeResult, error) {
	charge, low, err := s.bank.Access(row, dram.Ticks(now), s.cls.SenseLimit)
	if err != nil || !low {
		return ecc.OK, err
	}
	return s.cls.Classify(charge), nil
}

// Retire implements RowStore.
func (s *BankStore) Retire(row int) error { return s.bank.Retire(row) }
