package agepick

import "testing"

// item is a queued element: its enqueue stamp and a name for messages.
type item struct {
	t    int
	name string
}

func stampOf(it item) int { return it.t }

func TestPick(t *testing.T) {
	// Three classes, index 0 most urgent. Stamps are enqueue times; the
	// cutoff is now minus the aging threshold (now 10, threshold 5).
	cases := []struct {
		name   string
		queues [][]item
		aging  bool
		cutoff int
		want   int
	}{
		{
			name:   "empty",
			queues: [][]item{nil, nil, nil},
			aging:  true,
			cutoff: 5,
			want:   -1,
		},
		{
			name:   "no aged head serves the most urgent class",
			queues: [][]item{nil, {{8, "grad"}}, {{6, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   1,
		},
		{
			name:   "one aged head overtakes a more urgent class",
			queues: [][]item{{{9, "demand"}}, nil, {{2, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   2,
		},
		{
			name:   "oldest aged head wins across classes",
			queues: [][]item{{{4, "demand"}}, {{3, "grad"}}, {{1, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   2,
		},
		{
			name:   "aged tie across classes goes to the more urgent class",
			queues: [][]item{{{9, "demand"}}, {{3, "grad"}}, {{3, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   1,
		},
		{
			name:   "head exactly at the threshold is aged",
			queues: [][]item{{{9, "demand"}}, nil, {{5, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   2,
		},
		{
			name:   "head one tick inside the threshold is not aged",
			queues: [][]item{{{9, "demand"}}, nil, {{6, "mig"}}},
			aging:  true,
			cutoff: 5,
			want:   0,
		},
		{
			name:   "only the head of a class is considered",
			queues: [][]item{{{9, "demand"}}, {{7, "grad"}, {1, "grad-late"}}, nil},
			aging:  true,
			cutoff: 5,
			want:   0,
		},
		{
			name:   "aging disabled is strict priority",
			queues: [][]item{nil, {{9, "grad"}}, {{1, "mig"}}},
			aging:  false,
			cutoff: 5,
			want:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Pick(tc.queues, stampOf, tc.aging, tc.cutoff); got != tc.want {
				t.Fatalf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestPickAllocFree: Pick runs under the aio engine's queue lock on every
// dispatch, so it must not allocate — neither with a capturing stamp
// closure (aio's) nor with a plain one (des's).
func TestPickAllocFree(t *testing.T) {
	queues := [][]item{{{9, "demand"}}, {{3, "grad"}}, {{3, "mig"}}}
	now := 10
	got := testing.AllocsPerRun(100, func() {
		_ = Pick(queues, func(it item) int { return it.t - now }, true, -5)
		_ = Pick(queues, stampOf, true, 5)
	})
	if got != 0 {
		t.Fatalf("Pick allocates %v times per call pair, want 0", got)
	}
}
