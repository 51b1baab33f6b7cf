# Usage-error check for a command-line tool: the command must exit with
# status exactly 2 and print the expected reason. WILL_FAIL would also pass
# a process that dies on a signal (SIGFPE, an uncaught exception's abort),
# so a crash can never satisfy this check.
#
# Usage: cmake -DBIN=<binary> -DARGS=<args;list> -DEXPECT=<text>
#              -P expect_usage_error.cmake
#
# EXPECT is matched as a plain substring of stdout + stderr.
if(NOT BIN OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "pass -DBIN=<binary>, -DARGS=<args> and -DEXPECT=<text>")
endif()

execute_process(
  COMMAND "${BIN}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

string(REPLACE ";" " " shown "${ARGS}")
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${shown}' exited with '${rc}', expected exactly 2\n"
                      "${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "'${shown}' exited 2 but did not print '${EXPECT}':\n"
                      "${out}${err}")
endif()
message(STATUS "'${shown}' is a usage error (exit 2): ${EXPECT}")
