# ctest guard for the zero-overhead-when-disabled claim: runs
# `bench_levelized --overhead` and asserts the Simulation facade with all
# observability runtime-disabled stays within 5% of the raw (bare)
# levelized evaluator loop.
#
# Usage: cmake -DBENCH=<bench_levelized> -DJSON=<out.json> -P check_overhead_json.cmake
if(NOT BENCH OR NOT JSON)
  message(FATAL_ERROR "pass -DBENCH=<binary> and -DJSON=<output path>")
endif()

# --cycles is only the starting point: the bench grows the cycle count
# until every timed rep of every arm lasts at least 0.2 s (checked below),
# because a ratio of two ~10 ms timings is mostly scheduler noise.
execute_process(
  COMMAND ${BENCH} --overhead --cycles 8192 --width 32 --out ${JSON}
  RESULT_VARIABLE rv
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "bench_levelized --overhead failed (${rv}):\n${out}\n${err}")
endif()

file(READ ${JSON} content)

string(JSON schema ERROR_VARIABLE jerr GET "${content}" schema)
if(jerr OR NOT schema STREQUAL "zeus-bench-overhead-v1")
  message(FATAL_ERROR "bad schema field: '${schema}' ${jerr}")
endif()

foreach(field bare_seconds disabled_seconds enabled_seconds
              disabled_over_bare enabled_over_bare)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" ${field})
  if(jerr)
    message(FATAL_ERROR "missing '${field}': ${jerr}")
  endif()
  if(v LESS_EQUAL 0)
    message(FATAL_ERROR "'${field}' not positive: ${v}")
  endif()
  if(field MATCHES "_seconds$" AND v LESS 0.2)
    message(FATAL_ERROR "'${field}' is ${v} s (< 0.2 s): too short to time")
  endif()
endforeach()

string(JSON ratio GET "${content}" disabled_over_bare)
if(ratio GREATER 1.05)
  message(FATAL_ERROR
          "instrumented-but-disabled levelized run is ${ratio}x the bare "
          "evaluator loop (budget: 1.05x); the zero-overhead-when-disabled "
          "claim is broken")
endif()

message(STATUS "overhead OK: disabled/bare = ${ratio} (<= 1.05)")
