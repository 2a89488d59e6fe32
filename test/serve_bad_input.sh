#!/bin/sh
# Bad `serve` input must fail cleanly: exit code 1 with a "serve: ..."
# message on stderr, never an uncaught exception (exit 125).
# usage: serve_bad_input.sh PATH/TO/main.exe
exe=$1
status=0
check() {
  err=$("$exe" serve --duration 1 "$@" 2>&1 >/dev/null)
  code=$?
  case "$code:$err" in
    "1:serve: "*) ;;
    *)
      echo "FAIL (exit $code): serve $* -> $err"
      status=1
      ;;
  esac
}
check --cap 0
check --workers 0
check --machines 2 --workers 0
check --machines 2 --cap 0
check --machines 2 --net-bw 0
check --machines 2 --hedge-frac 1.5
check --machines 2 --hedge-frac=-0.1
check --machines 2 --hedge-budget=-1
check --machines 2 --slo-us 100 --slo-target 0
check --slo-target 1.5
check --rps 0
check --machines 2 --rps=-5
exit $status
