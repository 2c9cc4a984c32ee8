# Runs `CLI` with the '|'-separated `ARGS` and requires a clean rejection: a
# non-zero exit code (not a signal) and an "error:" line naming `EXPECT`.
#
#   cmake -DCLI=<unisamp_cli> -DARGS=<a|b|...> -DEXPECT=<text> -P cli_rejects.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "unisamp_cli ${args}: want a non-zero exit code, got "
                      "'${rc}'\n${out}${err}")
endif()
string(FIND "${err}" "error: " at)
string(FIND "${err}" "${EXPECT}" named)
if(at EQUAL -1 OR named EQUAL -1)
  message(FATAL_ERROR "unisamp_cli ${args}: want an 'error:' line naming "
                      "'${EXPECT}', got:\n${err}")
endif()
