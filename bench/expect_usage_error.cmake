# Runs ${BIN} with the space-separated ${ARGS} and fails unless it exits
# with code 2, the benches' usage-error code.
#   cmake -DBIN=<bench> "-DARGS=<flags>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: expected exit code 2, got ${rc}\n${err}")
endif()
