package core

import (
	"reflect"
	"testing"
)

// TestStatsAddFoldsEveryField fails when a field is added to Stats and
// not to Stats.add: every uint64 counter, set to distinct values on two
// inputs, must come out as their sum, and MaxRetire as the larger. A
// field of any other type fails outright, so its fold rule gets written
// down here too.
func TestStatsAddFoldsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		switch {
		case av.Field(i).Kind() == reflect.Uint64:
			av.Field(i).SetUint(uint64(100 + i))
			bv.Field(i).SetUint(uint64(1000 + 7*i))
		case name == "MaxRetire":
			a.MaxRetire, b.MaxRetire = 5, 9
		default:
			t.Fatalf("Stats.%s: no fold rule for kind %v", name, av.Field(i).Kind())
		}
	}
	sum := a
	sum.add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if got, want := sv.Field(i).Uint(), uint64(100+i)+uint64(1000+7*i); got != want {
			t.Errorf("Stats.%s = %d after add, want the sum %d", sv.Type().Field(i).Name, got, want)
		}
	}
	if sum.MaxRetire != 9 {
		t.Errorf("MaxRetire = %d after add, want the max 9", sum.MaxRetire)
	}
	// The fold is symmetric in MaxRetire.
	sum = b
	sum.add(a)
	if sum.MaxRetire != 9 {
		t.Errorf("MaxRetire = %d after reversed add, want 9", sum.MaxRetire)
	}
}
