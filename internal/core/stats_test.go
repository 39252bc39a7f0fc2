package core

import (
	"reflect"
	"testing"
)

// TestStatsAddFoldsEveryField fails when a field is added to Stats and
// not to Stats.Add or Stats.Sub: every uint64 counter, set to distinct
// values on two inputs, must come out of Add as their sum and of Sub as
// their difference; MaxRetire as the larger from Add and the receiver's
// own from Sub. A field of any other type fails outright, so its fold
// rule gets written down here too.
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
	sum.Add(b)
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
	sum.Add(a)
	if sum.MaxRetire != 9 {
		t.Errorf("MaxRetire = %d after reversed add, want 9", sum.MaxRetire)
	}

	// Sub subtracts every counter and keeps the receiver's gauge.
	dv := reflect.ValueOf(b.Sub(a))
	for i := 0; i < dv.NumField(); i++ {
		if dv.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if got, want := dv.Field(i).Uint(), uint64(1000+7*i)-uint64(100+i); got != want {
			t.Errorf("Stats.%s = %d after Sub, want the difference %d", dv.Type().Field(i).Name, got, want)
		}
	}
	if got := b.Sub(a).MaxRetire; got != 9 {
		t.Errorf("MaxRetire = %d after Sub, want the receiver's 9", got)
	}
	if got := a.Sub(b).MaxRetire; got != 5 {
		t.Errorf("MaxRetire = %d after reversed Sub, want the receiver's 5", got)
	}
}
