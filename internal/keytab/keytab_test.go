package keytab

import (
	"fmt"
	"testing"
)

// TestTableGrowsAndReserves inserts keys through growth, a Reserve on a
// holding table and a Reset: ids follow first insertion, a second Insert
// finds the first, Find answers every key and no other, and Verify holds
// throughout.
func TestTableGrowsAndReserves(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Find("absent"); ok {
		t.Fatal("empty table found a key")
	}
	for life := 0; life < 2; life++ {
		for i := 0; i < 3000; i++ {
			if i == 1000 {
				tab.Reserve(5000)
			}
			key := fmt.Sprintf("k%d", i%2000) // the last 1000 repeat
			id, found := tab.Insert(key)
			if found != (i >= 2000) || id != i%2000 || tab.Key(id) != key {
				t.Fatalf("life %d: Insert(%s) = %d %v", life, key, id, found)
			}
			*tab.Val(id) += i
		}
		if err := tab.Verify(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2100; i++ {
			want := i // the sum of the steps that inserted the key
			if i < 1000 {
				want += i + 2000
			}
			id, ok := tab.Find(fmt.Sprintf("k%d", i))
			if ok != (i < 2000) || ok && (id != i || *tab.Val(id) != want) {
				t.Fatalf("life %d: Find(k%d) = %d %v", life, i, id, ok)
			}
		}
		tab.Reset()
		if tab.Len() != 0 || tab.Verify() != nil {
			t.Fatal("Reset left entries")
		}
	}
}
