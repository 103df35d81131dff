// The standing benchmark is a module of its own so the root module's
// `go build ./... && go test ./...` never builds or runs it; the import
// path stays under repro/ so it may time repro/internal/... from outside.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
