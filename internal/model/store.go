package model

import (
	"fmt"
	"math"
)

// The store is a workload shaped like the paper's motivating business
// application (Section 4.3): customers indexed by name and by zip,
// transactions indexed by recency and reachable from their customers — a
// graph whose aliasing is structural, not synthetic, and which exercises
// maps, slices, strings, interfaces and floats on the wire.

// MacroCustomer is one customer record.
type MacroCustomer struct {
	Name         string
	Zip          string
	Balance      int
	Transactions []*MacroTransaction
	// Rating starts at +0.0; a rating op may overwrite it with −0.0, which
	// only a change detector that compares bits sees.
	Rating float64
	// Last is the customer's latest event: its newest *MacroTransaction, or
	// the name it had before a rename.
	Last any
}

// MacroTransaction is one purchase, pointing back at its customer.
type MacroTransaction struct {
	ID       int
	Amount   int
	Customer *MacroCustomer
}

// MacroStore is the restorable root: several indexes over one heap.
type MacroStore struct {
	ByName map[string]*MacroCustomer
	ByZip  map[string][]*MacroCustomer
	Recent []*MacroTransaction
	NextID int
}

// NRMIRestorable passes the whole store by copy-restore.
func (*MacroStore) NRMIRestorable() {}

// MacroOp is one scripted store mutation.
type MacroOp struct {
	// Kind: 0 purchase, 1 move, 2 rename, 3 rate.
	Kind int
	// Cust indexes the customer (by sorted-name position at script start).
	Cust int
	// Amount is the purchase amount, the new-zip discriminator or the
	// rating's magnitude.
	Amount int
}

// NewMacroStore builds a deterministic store with nCustomers customers
// spread over a handful of zip codes.
func NewMacroStore(seed int64, nCustomers int) *MacroStore {
	r := newRng(seed)
	s := &MacroStore{
		ByName: make(map[string]*MacroCustomer, nCustomers),
		ByZip:  make(map[string][]*MacroCustomer),
	}
	for i := 0; i < nCustomers; i++ {
		c := &MacroCustomer{
			Name: fmt.Sprintf("customer-%04d", i),
			Zip:  fmt.Sprintf("%05d", 10000+r.intn(8)),
		}
		s.ByName[c.Name] = c
		s.ByZip[c.Zip] = append(s.ByZip[c.Zip], c)
	}
	return s
}

// GenMacroScript generates a deterministic op sequence.
func GenMacroScript(seed int64, nCustomers, nOps int) []MacroOp {
	r := newRng(seed ^ 0xB125F5F)
	ops := make([]MacroOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		ops = append(ops, MacroOp{
			Kind:   r.intn(4),
			Cust:   r.intn(nCustomers),
			Amount: 100 + r.intn(10000),
		})
	}
	return ops
}

// ApplyMacro replays ops against the store. Customer selection goes by
// sorted initial names, so the script replays identically on isomorphic
// stores.
func ApplyMacro(s *MacroStore, ops []MacroOp) {
	names := make([]string, 0, len(s.ByName))
	for n := range s.ByName {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, op := range ops {
		if len(names) == 0 {
			return
		}
		c, ok := s.ByName[names[op.Cust%len(names)]]
		if !ok {
			continue // renamed away; mirrors real index staleness
		}
		switch op.Kind {
		case 0: // purchase
			s.NextID++
			t := &MacroTransaction{ID: s.NextID, Amount: op.Amount, Customer: c}
			c.Balance += op.Amount
			c.Transactions = append(c.Transactions, t)
			c.Last = t
			s.Recent = append([]*MacroTransaction{t}, s.Recent...)
			if len(s.Recent) > 10 {
				s.Recent = s.Recent[:10]
			}
		case 1: // move zip, copy-on-write index update
			newZip := fmt.Sprintf("%05d", 20000+op.Amount%8)
			old := s.ByZip[c.Zip]
			kept := make([]*MacroCustomer, 0, len(old))
			for _, cc := range old {
				if cc != c {
					kept = append(kept, cc)
				}
			}
			if len(kept) == 0 {
				delete(s.ByZip, c.Zip)
			} else {
				s.ByZip[c.Zip] = kept
			}
			c.Zip = newZip
			s.ByZip[newZip] = append(s.ByZip[newZip], c)
		case 2: // rename, reindexing by name
			delete(s.ByName, c.Name)
			c.Last = c.Name
			c.Name = c.Name + "x"
			s.ByName[c.Name] = c
		case 3: // rate: 0, 0.5, 1 or 1.5 below zero; a zero is −0.0
			c.Rating = math.Copysign(float64(op.Amount%4)/2, -1)
		}
	}
}
