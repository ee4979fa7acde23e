#!/bin/sh
# Run every workload, each in its own process, and print its metrics.
#   sh perfbench/all.sh [SEED] [SECONDS] [TRACE]
set -e
for w in class_series modularity dodec; do
    python3 "$(dirname "$0")/run.py" --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-20}" --trace "${3:-0}"
done
