package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	rates := []float64{500, 3000}
	a := poissonSchedule(42, rates, bodiesPerLane, time.Second)
	b := poissonSchedule(42, rates, bodiesPerLane, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, rates, bodiesPerLane, time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatal("schedule not ordered by intended send time")
		}
	}
	if n := len(a); n < 3000 || n > 4000 {
		t.Fatalf("%d jobs in one second at 3500/s", n)
	}

	for _, kind := range []payloadKind{payloadRandom, payloadText} {
		x, y := bodies(42, 1, kind, 1024, 8), bodies(42, 1, kind, 1024, 8)
		for i := range x {
			if len(x[i]) != 1024 || !bytes.Equal(x[i], y[i]) {
				t.Fatalf("kind %d: body %d differs for one seed", kind, i)
			}
		}
		if bytes.Equal(x[0], bodies(43, 1, kind, 1024, 8)[0]) {
			t.Fatalf("kind %d: different seeds gave the same body", kind)
		}
	}

	e := &env{lanes: []*lane{{rate: 75}, {rate: 1000}}}
	m1, m2 := e.mixJobs(42, streamSaturate), e.mixJobs(42, streamSaturate)
	lane0 := 0
	for i := 0; i < 10000; i++ {
		j1, _ := m1()
		j2, _ := m2()
		if j1 != j2 {
			t.Fatal("one seed gave two different saturate sequences")
		}
		if j1.lane == 0 {
			lane0++
		}
	}
	if lane0 < 500 || lane0 > 1000 {
		t.Fatalf("lane 0 drew %d of 10000 jobs, want about 75/1075 of them", lane0)
	}
}
