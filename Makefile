# Reproduces the CI gates locally. `make lint test` before pushing runs
# exactly what the lint and test jobs run.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test lint sgelint fmt-check vet loc clean

all: build lint test

build:
	go build ./...

test:
	go test ./...

# lint = the CI lint job: the sgelint invariant suite over every
# package (including test files, via go vet's [pkg.test] variants),
# plain go vet, and a gofmt cleanliness check.
lint: sgelint vet fmt-check

sgelint:
	go build -o $(GOBIN)/sgelint ./cmd/sgelint
	go vet -vettool=$(GOBIN)/sgelint ./...

vet:
	go vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc = non-test Go code lines: no _test.go files, blank lines, //
# comment lines, perfbench/ or testdata/. The size measure the
# roadmap's "same behaviour from less code" aim is tracked by. grep -h
# matters: with file-name prefixes a blank line reads "file:" and would
# be counted.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' \
		-not -path '*/testdata/*' | xargs grep -hv '^\s*//' | grep -v '^\s*$$' | wc -l

clean:
	rm -f $(GOBIN)/sgelint coverage.out
