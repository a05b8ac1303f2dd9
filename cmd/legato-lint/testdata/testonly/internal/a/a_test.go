package a

import "testing"

func TestA(t *testing.T) {
	if TestOnly()+Allowed()+(T{}).Spare() != 7 || (Orphan{}).Name() == "" {
		t.Fatal("sum")
	}
}
