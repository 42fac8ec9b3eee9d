package queue

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewFIFOValidation(t *testing.T) {
	if _, err := NewFIFO[int](0); err == nil {
		t.Error("capacity 0 should error")
	}
	if _, err := NewFIFO[int](-3); err == nil {
		t.Error("negative capacity should error")
	}
	if _, err := NewFIFO[int](1); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrder(t *testing.T) {
	q, err := NewFIFO[int](5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) rejected", i)
		}
	}
	for i := 1; i <= 5; i++ {
		v, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("Pop = %d, want %d (FIFO order)", v, i)
		}
	}
}

func TestFIFOWrapAround(t *testing.T) {
	q, err := NewFIFO[int](3)
	if err != nil {
		t.Fatal(err)
	}
	// Fill, drain partially, refill across the ring boundary.
	q.Push(1)
	q.Push(2)
	q.Push(3)
	if v, _ := q.Pop(); v != 1 {
		t.Fatal("want 1")
	}
	if v, _ := q.Pop(); v != 2 {
		t.Fatal("want 2")
	}
	q.Push(4)
	q.Push(5)
	want := []int{3, 4, 5}
	for _, w := range want {
		v, err := q.Pop()
		if err != nil || v != w {
			t.Fatalf("Pop = %v,%v want %d", v, err, w)
		}
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	q, err := NewFIFO[string](2)
	if err != nil {
		t.Fatal(err)
	}
	q.Push("a")
	q.Push("b")
	if q.Push("c") {
		t.Error("Push on full queue should return false")
	}
	st := q.Stats()
	if st.Dropped != 1 || st.Enqueued != 2 {
		t.Errorf("stats = %+v, want 1 drop, 2 enqueued", st)
	}
}

func TestFIFOEmptyOps(t *testing.T) {
	q, err := NewFIFO[int](2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Pop(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Pop on empty = %v, want ErrEmpty", err)
	}
}

func TestFIFOMaxOccupancy(t *testing.T) {
	q, _ := NewFIFO[int](10)
	q.Push(1)
	q.Push(2)
	q.Push(3)
	q.Pop()
	q.Pop()
	q.Push(4)
	if got := q.Stats().MaxOccupancy; got != 3 {
		t.Errorf("MaxOccupancy = %d, want 3", got)
	}
}

func TestFIFOConservationProperty(t *testing.T) {
	// enqueued == dequeued + still-in-queue, and enqueued + dropped ==
	// offered, for any operation sequence.
	f := func(ops []bool, capRaw uint8) bool {
		capacity := 1 + int(capRaw%16)
		q, err := NewFIFO[int](capacity)
		if err != nil {
			return false
		}
		offered := 0
		for i, push := range ops {
			if push {
				q.Push(i)
				offered++
			} else {
				_, _ = q.Pop()
			}
		}
		st := q.Stats()
		if st.Enqueued+st.Dropped != offered {
			return false
		}
		if st.Enqueued != st.Dequeued+q.Len() {
			return false
		}
		return st.MaxOccupancy <= capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOQmax1ParaperSemantics(t *testing.T) {
	// The paper's Q_max = 1 configuration: while one packet is waiting,
	// every arrival is dropped.
	q, _ := NewFIFO[int](1)
	if !q.Push(1) {
		t.Fatal("first push should succeed")
	}
	for i := 0; i < 5; i++ {
		if q.Push(2) {
			t.Fatal("pushes while full must drop")
		}
	}
	if q.Stats().Dropped != 5 {
		t.Errorf("Dropped = %d, want 5", q.Stats().Dropped)
	}
}
