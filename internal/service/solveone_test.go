package service

import (
	"context"

	"repro/checkmate"
	"repro/internal/service/api"
)

// solveOne runs solveKeyed under the key the params imply, for tests that
// drive a single solve without a request around it.
func (s *Server) solveOne(ctx context.Context, wl *checkmate.Workload, p solveParams, noCache bool) (*api.SolveResponse, error) {
	return s.solveKeyed(ctx, wl, p, wl.SolveKeyFor(p.method, p.budget, p.opt), noCache)
}
