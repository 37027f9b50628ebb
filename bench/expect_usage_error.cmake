# ctest helper: runs BENCH with the space-separated arguments in ARGS and
# passes only when it exits with status 2, prints nothing on stdout and
# one usage line on stderr. When ABSENT is set, the usage line must not
# name that flag.
#
#   cmake -DBENCH=build/bench/bench_fig11_budget_sweep \
#         "-DARGS=--quick --metrics-out m.json" -DABSENT=--metrics-out \
#         -P bench/expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "exit status '${status}', expected 2; stderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got: ${out}")
endif()
if(NOT err MATCHES "^[^\n]*usage: [^\n]*\n$")
  message(FATAL_ERROR "expected one usage line on stderr, got: ${err}")
endif()
if(NOT ABSENT STREQUAL "")
  string(REGEX REPLACE "^.*usage: " "" usage "${err}")
  string(FIND "${usage}" "${ABSENT}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "usage line names ${ABSENT}: ${err}")
  endif()
endif()
