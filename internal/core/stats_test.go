package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
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

// TestCountersBackEveryStatsField fails when a field is added to Stats
// without a per-thread counter behind it: counters must hold one atomic
// word per Stats field, in the same order under the same name, and load
// must copy each word, set to a distinct value, into its own field.
func TestCountersBackEveryStatsField(t *testing.T) {
	st, ct := reflect.TypeFor[Stats](), reflect.TypeFor[counters]()
	if st.NumField() != ct.NumField() {
		t.Fatalf("Stats has %d fields, counters %d words", st.NumField(), ct.NumField())
	}
	var c counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if !strings.EqualFold(f.Name, st.Field(i).Name) || f.Type != reflect.TypeFor[atomic.Uint64]() {
			t.Fatalf("counters field %d is %s %v, want an atomic.Uint64 named %s", i, f.Name, f.Type, st.Field(i).Name)
		}
		(*atomic.Uint64)(unsafe.Pointer(cv.Field(i).UnsafeAddr())).Store(uint64(100 + i))
	}
	sv := reflect.ValueOf(c.load())
	for i := 0; i < sv.NumField(); i++ {
		var got uint64
		switch f := sv.Field(i); f.Kind() {
		case reflect.Uint64:
			got = f.Uint()
		case reflect.Int:
			got = uint64(f.Int())
		default:
			t.Fatalf("Stats.%s: no load rule for kind %v", st.Field(i).Name, f.Kind())
		}
		if got != uint64(100+i) {
			t.Errorf("Stats.%s = %d after load, want its word's %d", st.Field(i).Name, got, 100+i)
		}
	}
}

// TestLifecycleStatsAddFoldsEveryField is the same guard for
// LifecycleStats.Add, the fold behind DomainGroup.Lifecycle: every
// integer counter comes out as the sum, SlotLeases is left alone (the
// caller supplies the group-slot vector), and a field of any other kind
// fails until its rule is written down here.
func TestLifecycleStatsAddFoldsEveryField(t *testing.T) {
	var a, b LifecycleStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		switch av.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			av.Field(i).SetInt(int64(100 + i))
			bv.Field(i).SetInt(int64(1000 + 7*i))
		case reflect.Uint64:
			av.Field(i).SetUint(uint64(100 + i))
			bv.Field(i).SetUint(uint64(1000 + 7*i))
		default:
			if name != "SlotLeases" {
				t.Fatalf("LifecycleStats.%s: no fold rule for kind %v", name, av.Field(i).Kind())
			}
			a.SlotLeases, b.SlotLeases = []uint64{1, 2}, []uint64{3}
		}
	}
	sum := a
	sum.Add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name, want := sv.Type().Field(i).Name, uint64(100+i)+uint64(1000+7*i)
		switch sv.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			if got := sv.Field(i).Int(); got != int64(want) {
				t.Errorf("LifecycleStats.%s = %d after add, want the sum %d", name, got, want)
			}
		case reflect.Uint64:
			if got := sv.Field(i).Uint(); got != want {
				t.Errorf("LifecycleStats.%s = %d after add, want the sum %d", name, got, want)
			}
		}
	}
	if !reflect.DeepEqual(sum.SlotLeases, []uint64{1, 2}) {
		t.Errorf("SlotLeases = %v after add, want the receiver's own [1 2]", sum.SlotLeases)
	}
}
